package switchos_test

// Black-box tests of the agent's idempotency cache against a full P4Auth
// data plane: a retransmitted handshake message must re-emit the cached
// response byte for byte instead of re-deriving key state.

import (
	"bytes"
	"testing"

	"p4auth/internal/core"
	"p4auth/internal/crypto"
	"p4auth/internal/deploy"
	"p4auth/internal/obs"
	"p4auth/internal/switchos"
)

func buildP4AuthSwitch(t *testing.T) *deploy.Switch {
	t.Helper()
	sw, err := deploy.Build(deploy.SwitchSpec{Name: "s1", Ports: 2})
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

// signedKx builds a signed key-exchange message under the switch's current
// local key version.
func signedKx(t *testing.T, sw *deploy.Switch, msgType uint8, seq uint32, ver uint8, key uint64, kx *core.KxPayload) []byte {
	t.Helper()
	dig, err := sw.Cfg.Digester()
	if err != nil {
		t.Fatal(err)
	}
	m := &core.Message{
		Header: core.Header{HdrType: core.HdrKeyExch, MsgType: msgType, SeqNum: seq, KeyVersion: ver},
		Kx:     kx,
	}
	if err := m.Sign(dig, key); err != nil {
		t.Fatal(err)
	}
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func localVer(t *testing.T, sw *deploy.Switch) uint64 {
	t.Helper()
	v, err := sw.Host.SW.RegisterRead(core.RegVer, core.KeyIndexLocal)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestDuplicateEAKReplaysCachedResponse retransmits an EAK opener and
// checks the agent re-emits the identical cached EAKSalt2 — same S2, no
// second key derivation, no replay alert.
func TestDuplicateEAKReplaysCachedResponse(t *testing.T) {
	sw := buildP4AuthSwitch(t)
	req := signedKx(t, sw, core.MsgEAKSalt1, 1, 0, sw.Cfg.Seed, &core.KxPayload{Salt: 0xAABB})

	res1, err := sw.Host.PacketOut(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.PacketIns) != 1 {
		t.Fatalf("EAK produced %d PacketIns, want 1", len(res1.PacketIns))
	}
	if v := localVer(t, sw); v != 1 {
		t.Fatalf("pa_ver[0]=%d after EAK, want 1", v)
	}

	// The retransmission a controller sends after losing the response.
	res2, err := sw.Host.PacketOut(append([]byte(nil), req...))
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.PacketIns) != 1 {
		t.Fatalf("duplicate EAK produced %d PacketIns, want 1", len(res2.PacketIns))
	}
	if !bytes.Equal(res1.PacketIns[0], res2.PacketIns[0]) {
		t.Error("duplicate EAK response differs from the original (cache miss re-derived S2)")
	}
	if v := localVer(t, sw); v != 1 {
		t.Fatalf("pa_ver[0]=%d after duplicate, want 1 (double install)", v)
	}
	r, err := core.DecodeMessage(res2.PacketIns[0])
	if err != nil {
		t.Fatal(err)
	}
	if r.HdrType != core.HdrKeyExch || r.MsgType != core.MsgEAKSalt2 {
		t.Fatalf("duplicate answered with hdr=%d msg=%d, want cached EAKSalt2", r.HdrType, r.MsgType)
	}
}

// TestDuplicateInsideBatchWindowHitsCache sends a byte-identical duplicate
// inside one PacketOutBatchInto window: like any other retransmission it
// is answered from the idempotency cache — one key derivation, two
// identical EAKSalt2 responses, and exactly one agent cache hit.
func TestDuplicateInsideBatchWindowHitsCache(t *testing.T) {
	sw := buildP4AuthSwitch(t)
	reg := obs.NewRegistry()
	sw.Host.Observe(reg)
	req := signedKx(t, sw, core.MsgEAKSalt1, 1, 0, sw.Cfg.Seed, &core.KxPayload{Salt: 0xAABB})

	var io switchos.IOResult
	if err := sw.Host.PacketOutBatchInto([][]byte{req, append([]byte(nil), req...)}, &io); err != nil {
		t.Fatal(err)
	}
	if len(io.PacketIns) != 2 {
		t.Fatalf("window produced %d PacketIns, want 2", len(io.PacketIns))
	}
	if !bytes.Equal(io.PacketIns[0], io.PacketIns[1]) {
		t.Error("in-window duplicate answered differently from the original (reached the pipeline)")
	}
	r, err := core.DecodeMessage(io.PacketIns[1])
	if err != nil {
		t.Fatal(err)
	}
	if r.HdrType != core.HdrKeyExch || r.MsgType != core.MsgEAKSalt2 {
		t.Fatalf("in-window duplicate answered with hdr=%d msg=%d, want cached EAKSalt2", r.HdrType, r.MsgType)
	}
	if v := localVer(t, sw); v != 1 {
		t.Fatalf("pa_ver[0]=%d after window, want 1 (double install)", v)
	}
	if hits := reg.Counter("agent.s1.cache_hits").Load(); hits != 1 {
		t.Fatalf("agent.s1.cache_hits = %d, want 1", hits)
	}
	if outs := reg.Counter("agent.s1.packet_outs").Load(); outs != 2 {
		t.Fatalf("agent.s1.packet_outs = %d, want 2", outs)
	}
}

// TestDuplicateADHKDReplaysCachedResponse does the same for the ADHKD
// rollover message, where re-deriving would also burn a fresh R2/S2.
func TestDuplicateADHKDReplaysCachedResponse(t *testing.T) {
	sw := buildP4AuthSwitch(t)
	// Establish K_auth first so the rollover runs under a real key.
	eakReq := signedKx(t, sw, core.MsgEAKSalt1, 1, 0, sw.Cfg.Seed, &core.KxPayload{Salt: 7})
	res, err := sw.Host.PacketOut(eakReq)
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.DecodeMessage(res.PacketIns[0])
	if err != nil {
		t.Fatal(err)
	}
	kdf, err := sw.Cfg.KDF()
	if err != nil {
		t.Fatal(err)
	}
	kauth := kdf.Derive(sw.Cfg.Seed, core.SaltPair(7, r.Kx.Salt))

	adhkd := core.NewADHKD(sw.Cfg, crypto.NewSeededRand(99))
	req := signedKx(t, sw, core.MsgADHKD1, 2, 1, kauth, &core.KxPayload{PK: adhkd.PK1(), Salt: adhkd.S1})
	res1, err := sw.Host.PacketOut(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.PacketIns) != 1 {
		t.Fatalf("ADHKD produced %d PacketIns, want 1", len(res1.PacketIns))
	}
	if v := localVer(t, sw); v != 2 {
		t.Fatalf("pa_ver[0]=%d after ADHKD, want 2", v)
	}
	res2, err := sw.Host.PacketOut(append([]byte(nil), req...))
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.PacketIns) != 1 || !bytes.Equal(res1.PacketIns[0], res2.PacketIns[0]) {
		t.Error("duplicate ADHKD not answered from the cache")
	}
	if v := localVer(t, sw); v != 2 {
		t.Fatalf("pa_ver[0]=%d after duplicate ADHKD, want 2 (double install)", v)
	}
}

// TestDuplicateWithDifferentBytesHitsPipeline checks the cache demands a
// byte-identical request: a same-seq message with altered content is NOT
// served the cached response — it falls through to the pipeline, whose
// replay defence rejects it.
func TestDuplicateWithDifferentBytesHitsPipeline(t *testing.T) {
	sw := buildP4AuthSwitch(t)
	req := signedKx(t, sw, core.MsgEAKSalt1, 1, 0, sw.Cfg.Seed, &core.KxPayload{Salt: 0xAABB})
	if _, err := sw.Host.PacketOut(req); err != nil {
		t.Fatal(err)
	}

	// Same seq, different salt, correctly re-signed — an attacker with the
	// key could do this; the replay register, not the cache, must answer.
	forged := signedKx(t, sw, core.MsgEAKSalt1, 1, 0, sw.Cfg.Seed, &core.KxPayload{Salt: 0xCCDD})
	res, err := sw.Host.PacketOut(forged)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PacketIns) != 1 {
		t.Fatalf("forged duplicate produced %d PacketIns, want 1 alert", len(res.PacketIns))
	}
	r, err := core.DecodeMessage(res.PacketIns[0])
	if err != nil {
		t.Fatal(err)
	}
	if r.HdrType != core.HdrAlert || r.MsgType != core.AlertReplay {
		t.Fatalf("forged duplicate answered with hdr=%d msg=%d, want replay alert", r.HdrType, r.MsgType)
	}
	if v := localVer(t, sw); v != 1 {
		t.Fatalf("pa_ver[0]=%d, forged duplicate must not install", v)
	}
}

// TestAlertResponsesNeverCached replays garbage twice: both copies must
// re-enter the pipeline (the alert budget drains by two), not be served a
// cached alert.
func TestAlertResponsesNeverCached(t *testing.T) {
	sw := buildP4AuthSwitch(t)
	garbage := signedKx(t, sw, core.MsgEAKSalt1, 5, 0, 0xBAD, &core.KxPayload{Salt: 1})

	for i := 0; i < 2; i++ {
		res, err := sw.Host.PacketOut(append([]byte(nil), garbage...))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.PacketIns) != 1 {
			t.Fatalf("garbage copy %d produced %d PacketIns, want 1 alert", i, len(res.PacketIns))
		}
		r, err := core.DecodeMessage(res.PacketIns[0])
		if err != nil {
			t.Fatal(err)
		}
		if r.HdrType != core.HdrAlert || r.MsgType != core.AlertBadDigest {
			t.Fatalf("garbage answered with hdr=%d msg=%d", r.HdrType, r.MsgType)
		}
	}
	// Two pipeline passes = two alert-counter bumps.
	if n, err := sw.Host.SW.RegisterRead(core.RegAlert, 0); err != nil || n != 2 {
		t.Fatalf("alert counter = %d (err %v), want 2 pipeline passes", n, err)
	}
}

// TestCacheDisableAndEviction covers SetResponseCache: capacity 0 turns
// the cache off (duplicates then trip the replay defence), and a tiny
// capacity evicts the oldest exchange FIFO.
func TestCacheDisableAndEviction(t *testing.T) {
	t.Run("disabled", func(t *testing.T) {
		sw := buildP4AuthSwitch(t)
		sw.Host.SetResponseCache(0)
		req := signedKx(t, sw, core.MsgEAKSalt1, 1, 0, sw.Cfg.Seed, &core.KxPayload{Salt: 2})
		if _, err := sw.Host.PacketOut(req); err != nil {
			t.Fatal(err)
		}
		res, err := sw.Host.PacketOut(append([]byte(nil), req...))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.PacketIns) != 1 {
			t.Fatalf("got %d PacketIns, want 1", len(res.PacketIns))
		}
		r, err := core.DecodeMessage(res.PacketIns[0])
		if err != nil {
			t.Fatal(err)
		}
		if r.HdrType != core.HdrAlert || r.MsgType != core.AlertReplay {
			t.Fatalf("without cache, duplicate must trip replay defence; got hdr=%d msg=%d", r.HdrType, r.MsgType)
		}
	})
	t.Run("eviction", func(t *testing.T) {
		sw := buildP4AuthSwitch(t)
		sw.Host.SetResponseCache(1)
		// First exchange fills the single slot; the rollover evicts it.
		req1 := signedKx(t, sw, core.MsgEAKSalt1, 1, 0, sw.Cfg.Seed, &core.KxPayload{Salt: 3})
		res1, err := sw.Host.PacketOut(req1)
		if err != nil {
			t.Fatal(err)
		}
		r1, err := core.DecodeMessage(res1.PacketIns[0])
		if err != nil {
			t.Fatal(err)
		}
		kdf, err := sw.Cfg.KDF()
		if err != nil {
			t.Fatal(err)
		}
		kauth := kdf.Derive(sw.Cfg.Seed, core.SaltPair(3, r1.Kx.Salt))
		adhkd := core.NewADHKD(sw.Cfg, crypto.NewSeededRand(5))
		req2 := signedKx(t, sw, core.MsgADHKD1, 2, 1, kauth, &core.KxPayload{PK: adhkd.PK1(), Salt: adhkd.S1})
		if _, err := sw.Host.PacketOut(req2); err != nil {
			t.Fatal(err)
		}
		// req1's entry was evicted: its duplicate now reaches the pipeline
		// instead of the cache. The rollover rotated key slot 0, so the
		// seed-signed copy fails the digest check (BadDigest, not Replay) —
		// either way it must be an alert, not the cached EAKSalt2.
		res, err := sw.Host.PacketOut(append([]byte(nil), req1...))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.PacketIns) != 1 {
			t.Fatalf("got %d PacketIns, want 1", len(res.PacketIns))
		}
		r, err := core.DecodeMessage(res.PacketIns[0])
		if err != nil {
			t.Fatal(err)
		}
		if r.HdrType != core.HdrAlert || r.MsgType != core.AlertBadDigest {
			t.Fatalf("evicted duplicate must re-enter the pipeline; got hdr=%d msg=%d", r.HdrType, r.MsgType)
		}
	})
}

package switchos

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"p4auth/internal/core"
)

// fifoCache is the idempotency cache as it was before the direct-mapped
// ring: a map from sequence number to entry, evicting in insertion order.
// It lives on as the reference the ring is driven against.
type fifoCache struct {
	cap     int
	bySeq   map[uint32]int
	entries []cachedExchange
	next    int
}

func newFIFOCache(capacity int) *fifoCache {
	return &fifoCache{cap: capacity, bySeq: make(map[uint32]int, capacity)}
}

func (rc *fifoCache) lookup(seq uint32, req []byte) ([][]byte, bool) {
	i, ok := rc.bySeq[seq]
	if !ok || !bytes.Equal(rc.entries[i].req, req) {
		return nil, false
	}
	return rc.entries[i].pins, true
}

func (rc *fifoCache) store(seq uint32, req []byte, pins [][]byte) {
	var e *cachedExchange
	if i, ok := rc.bySeq[seq]; ok {
		e = &rc.entries[i]
	} else if len(rc.entries) < rc.cap {
		rc.bySeq[seq] = len(rc.entries)
		rc.entries = append(rc.entries, cachedExchange{})
		e = &rc.entries[len(rc.entries)-1]
	} else {
		delete(rc.bySeq, rc.entries[rc.next].seq)
		e = &rc.entries[rc.next]
		rc.bySeq[seq] = rc.next
		rc.next = (rc.next + 1) % rc.cap
	}
	e.seq = seq
	e.req = append([]byte(nil), req...)
	e.pins = nil
	for _, p := range pins {
		e.pins = append(e.pins, append([]byte(nil), p...))
	}
}

// regWire encodes an unsigned register message: the caches compare bytes,
// not digests.
func regWire(hdrType, msgType uint8, seq uint32, value uint64) []byte {
	m := core.Message{
		Header: core.Header{HdrType: hdrType, MsgType: msgType, SeqNum: seq},
		Reg:    &core.RegPayload{RegID: 7, Index: seq % 64, Value: value},
	}
	return m.AppendEncode(nil)
}

// cachePair drives the reference and the ring with one agent's traffic.
type cachePair struct {
	t      *testing.T
	fifo   *fifoCache
	ring   *responseCache
	cap    uint32
	newest uint32
	hits   int
	misses int
}

// request is what packetOutOne does around the pipeline: look the request
// up, and on a miss remember what the pipeline answered if that is worth
// remembering. Both caches must agree on every lookup for a sequence
// number less than cap behind the newest one seen.
func (p *cachePair) request(seq uint32, req []byte, pins [][]byte) {
	p.t.Helper()
	if seq > p.newest {
		p.newest = seq
	}
	want, wantHit := p.fifo.lookup(seq, req)
	got, gotHit := p.ring.lookup(seq, req)
	if p.newest-seq < p.cap {
		if gotHit != wantHit {
			p.t.Fatalf("seq %d (newest %d): ring hit=%v, FIFO hit=%v", seq, p.newest, gotHit, wantHit)
		}
		if gotHit && !equalPins(got, want) {
			p.t.Fatalf("seq %d: ring answered %x, FIFO %x", seq, got, want)
		}
	}
	if gotHit {
		p.hits++
		// Whatever the reference says, a hit is never a wrong answer: the
		// ring only answers the bytes it stored.
		if e := p.ring.slot(seq); !bytes.Equal(e.req, req) || !equalPins(got, e.pins) {
			p.t.Fatalf("seq %d: hit does not match the stored exchange", seq)
		}
	} else {
		p.misses++
	}
	worthy := (&Host{}).cacheWorthy(req, pins)
	if !wantHit && worthy {
		p.fifo.store(seq, req, pins)
	}
	if !gotHit && worthy {
		p.ring.store(seq, req, pins)
	}
}

func equalPins(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestRingCacheMatchesFIFO drives the ring and the FIFO-with-map cache it
// replaced with the request streams a controller produces: monotone
// sequence numbers sent in windows of 1..64, SkipAhead(FloorLease) jumps,
// same-bytes resends of a request still in the window, a different request
// under a sequence number already answered, and pipeline results that are
// not remembered (alerts, silence). Every lookup answers the same.
func TestRingCacheMatchesFIFO(t *testing.T) {
	for _, capacity := range []int{DefaultResponseCacheSize, 64, 256} {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			p := &cachePair{t: t, fifo: newFIFOCache(capacity), ring: newResponseCache(capacity), cap: uint32(capacity)}
			next := uint32(1)
			for round := 0; round < 400; round++ {
				if rng.Intn(50) == 0 {
					next += core.FloorLease // the controller healed a restored floor
				}
				window := 1 + rng.Intn(64)
				if window >= capacity {
					window = capacity - 1
				}
				first := next
				for i := 0; i < window; i++ {
					seq := next
					next++
					req := regWire(core.HdrRegister, core.MsgWriteReq, seq, rng.Uint64())
					ack := [][]byte{regWire(core.HdrRegister, core.MsgAck, seq, 0)}
					switch rng.Intn(12) {
					case 0: // rejected: the alert is not remembered
						p.request(seq, req, [][]byte{regWire(core.HdrAlert, core.AlertBadDigest, seq, 0)})
					case 1: // dropped below the agent: nothing to remember
						p.request(seq, req, nil)
					case 2: // a key-exchange leg that answers nothing is remembered
						kx := regWire(core.HdrKeyExch, core.MsgADHKD2, seq, 0)
						p.request(seq, kx, nil)
					default:
						p.request(seq, req, ack)
					}
					if rng.Intn(6) == 0 {
						// Same-bytes resend of something in this window, then
						// a forged request under its number.
						back := first + uint32(rng.Intn(int(seq-first)+1))
						p.request(back, regWire(core.HdrRegister, core.MsgWriteReq, back, 0xF00D), ack)
						if e := p.ring.slot(back); e.live && e.seq == back {
							p.request(back, append([]byte(nil), e.req...), ack)
						}
					}
				}
			}
			if p.hits == 0 || p.misses == 0 {
				t.Fatalf("cap %d seed %d: %d hits, %d misses: the stream exercised one side only", capacity, seed, p.hits, p.misses)
			}
		}
	}
}

// TestRingCacheDocumentedDifferences pins the two cases in which the ring
// and the FIFO may answer differently. In both the ring misses where the
// FIFO would have hit, so the resend goes to the pipeline's replay defence:
// one more round for the sender, and never a wrong answer.
func TestRingCacheDocumentedDifferences(t *testing.T) {
	ack := func(seq uint32) [][]byte { return [][]byte{regWire(core.HdrRegister, core.MsgAck, seq, 0)} }
	req := func(seq uint32) []byte { return regWire(core.HdrRegister, core.MsgWriteReq, seq, uint64(seq)) }

	t.Run("more than cap behind the newest", func(t *testing.T) {
		const capacity = 8
		fifo, ring := newFIFOCache(capacity), newResponseCache(capacity)
		// Every other exchange is an alert and is not stored, so the FIFO's
		// 8 entries reach back 16 numbers and the ring's slots 8.
		for seq := uint32(1); seq <= 32; seq++ {
			if seq%2 == 0 {
				fifo.store(seq, req(seq), ack(seq))
				ring.store(seq, req(seq), ack(seq))
			}
		}
		const old = 32 - 10 // stored, 10 behind the newest
		if _, hit := fifo.lookup(old, req(old)); !hit {
			t.Fatal("the FIFO should still hold an entry 10 behind the newest")
		}
		if _, hit := ring.lookup(old, req(old)); hit {
			t.Fatal("the ring should have given that slot to a newer number")
		}
		for seq := uint32(32 - capacity + 1); seq <= 32; seq++ {
			_, f := fifo.lookup(seq, req(seq))
			_, r := ring.lookup(seq, req(seq))
			if f != r || f != (seq%2 == 0) {
				t.Fatalf("seq %d, inside cap of the newest: FIFO hit=%v ring hit=%v", seq, f, r)
			}
		}
	})

	t.Run("capacity that does not divide FloorLease", func(t *testing.T) {
		const capacity = 100 // FloorLease % 100 == 36
		fifo, ring := newFIFOCache(capacity), newResponseCache(capacity)
		for seq := uint32(1); seq <= capacity; seq++ {
			fifo.store(seq, req(seq), ack(seq))
			ring.store(seq, req(seq), ack(seq))
		}
		// One request after a floor heal: the FIFO gives up its oldest
		// entry, the ring the one 36 slots further on.
		jumped := uint32(capacity) + core.FloorLease
		fifo.store(jumped, req(jumped), ack(jumped))
		ring.store(jumped, req(jumped), ack(jumped))
		collides := jumped % capacity
		if _, hit := fifo.lookup(collides, req(collides)); !hit {
			t.Fatalf("the FIFO should still hold seq %d", collides)
		}
		if _, hit := ring.lookup(collides, req(collides)); hit {
			t.Fatalf("seq %d and %d share a slot: the ring holds only the newer", collides, jumped)
		}
		if _, hit := ring.lookup(1, req(1)); !hit {
			t.Fatal("the ring should still hold seq 1, which the FIFO evicted")
		}
		// With the default capacity the jump lands on the oldest slot, as
		// the FIFO's cursor does.
		if core.FloorLease%DefaultResponseCacheSize != 0 {
			t.Fatalf("FloorLease %d is not a multiple of the default capacity %d", core.FloorLease, DefaultResponseCacheSize)
		}
	})
}

// TestRingCacheStoreDoesNotAllocate: once every slot has held an exchange,
// storing recycles the evicted entry's buffers.
func TestRingCacheStoreDoesNotAllocate(t *testing.T) {
	rc := newResponseCache(DefaultResponseCacheSize)
	reqs := make([][]byte, 4*DefaultResponseCacheSize)
	acks := make([][][]byte, len(reqs))
	for i := range reqs {
		reqs[i] = regWire(core.HdrRegister, core.MsgWriteReq, uint32(i), uint64(i))
		acks[i] = [][]byte{regWire(core.HdrRegister, core.MsgAck, uint32(i), 0)}
	}
	i := 0
	store := func() {
		rc.store(uint32(i), reqs[i%len(reqs)], acks[i%len(reqs)])
		i++
	}
	for i < DefaultResponseCacheSize {
		store()
	}
	if n := testing.AllocsPerRun(1000, store); n != 0 {
		t.Fatalf("store allocates %.1f times per call after warm-up", n)
	}
	rc.clear()
	if n := testing.AllocsPerRun(1000, store); n != 0 {
		t.Fatalf("store allocates %.1f times per call after a clear", n)
	}
}

// TestClearCacheVsPacketOut: a reboot (ClearCache) or a resize
// (SetResponseCache) may come from another goroutine than the one sending
// PacketOuts, as Controller.Reinitialize and deploy.Switch.Reboot do
// beside a pipelined writer. Run under -race.
func TestClearCacheVsPacketOut(t *testing.T) {
	h := newHost(t)
	// A key-exchange message that the test program forwards and answers
	// with nothing: cacheable, so every PacketOut looks up and stores.
	wire := func(seq uint32) []byte { return regWire(core.HdrKeyExch, core.MsgADHKD2, seq, 0) }
	const rounds = 2000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		var io IOResult
		for i := 0; i < rounds; i++ {
			for k := 0; k < 2; k++ { // the second is a same-bytes resend
				if err := h.PacketOutInto(wire(uint32(i)), &io); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			h.ClearCache()
			if i%64 == 0 {
				h.SetResponseCache(DefaultResponseCacheSize - i%3)
			}
		}
	}()
	wg.Wait()
}

package crypto

import (
	"encoding/binary"
	"hash/crc32"
	"testing"
	"testing/quick"
)

func TestKDFDeterministic(t *testing.T) {
	kdfs := map[string]KDF{
		"default-halfsiphash": {},
		"crc32-prf":           {PRF: NewKeyedCRC32()},
		"rounds-3":            {Rounds: 3},
		"personalized":        {Personalization: 0x5eed},
	}
	for name, k := range kdfs {
		k := k
		t.Run(name, func(t *testing.T) {
			f := func(secret, salt uint64) bool {
				return k.Derive(secret, salt) == k.Derive(secret, salt)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestKDFSaltChangesOutput(t *testing.T) {
	var k KDF
	const secret = 0xfeedface
	seen := make(map[uint64]uint64)
	rng := NewSeededRand(3)
	for i := 0; i < 200; i++ {
		salt := rng.Uint64()
		out := k.Derive(secret, salt)
		if prev, dup := seen[out]; dup {
			t.Fatalf("salt collision: salts %#x and %#x derive the same key", prev, salt)
		}
		seen[out] = salt
	}
}

func TestKDFSecretChangesOutput(t *testing.T) {
	var k KDF
	const salt = 0xabcdef
	base := k.Derive(0, salt)
	for bit := 0; bit < 64; bit++ {
		if k.Derive(1<<bit, salt) == base {
			t.Errorf("flipping secret bit %d left the derived key unchanged", bit)
		}
	}
}

func TestKDFPersonalizationGuards(t *testing.T) {
	// The compensating control for the modified DH's passive weakness
	// (see TestModDHPassiveRecovery): an observer who recovers the
	// pre-master secret AND the salt still derives the wrong key without
	// the secret personalization constant.
	deployment := KDF{Personalization: 0x7a6b5c4d3e2f1001}
	observer := KDF{} // knows the algorithm, not the personalization
	const pms, salt = 0x1122334455667788, 0x99aabbccddeeff00
	if deployment.Derive(pms, salt) == observer.Derive(pms, salt) {
		t.Fatal("observer derived the deployment key without the personalization secret")
	}
	// And wrong guesses don't help.
	for g := uint64(1); g < 100; g++ {
		wrong := KDF{Personalization: g}
		if wrong.Derive(pms, salt) == deployment.Derive(pms, salt) {
			t.Fatalf("personalization guess %d collided", g)
		}
	}
}

func TestKDFRoundsChangeOutput(t *testing.T) {
	one := KDF{Rounds: 1}
	two := KDF{Rounds: 2}
	if one.Derive(1, 2) == two.Derive(1, 2) {
		t.Error("round count does not affect derivation")
	}
	// Rounds < 1 behaves as 1, per the doc contract.
	zero := KDF{Rounds: 0}
	neg := KDF{Rounds: -5}
	if zero.Derive(1, 2) != one.Derive(1, 2) || neg.Derive(1, 2) != one.Derive(1, 2) {
		t.Error("rounds<1 should clamp to the paper's single-round setting")
	}
}

func TestKDFOutputBitBalanceQuick(t *testing.T) {
	// "Close-to-random" keys (§VI-D): across random inputs, each output
	// bit should be set roughly half the time.
	var k KDF
	rng := NewSeededRand(11)
	const samples = 4000
	var counts [64]int
	for i := 0; i < samples; i++ {
		out := k.Derive(rng.Uint64(), rng.Uint64())
		for b := 0; b < 64; b++ {
			if out&(1<<b) != 0 {
				counts[b]++
			}
		}
	}
	for b, c := range counts {
		frac := float64(c) / samples
		if frac < 0.45 || frac > 0.55 {
			t.Errorf("output bit %d set %.3f of the time, want ~0.5", b, frac)
		}
	}
}

func TestVerifyConstantTimeCompare(t *testing.T) {
	d := NewHalfSipHashDigester()
	const key = 0x42
	msg := []byte("writeReq reg=4 idx=2 val=9")
	good := d.Sum32(key, msg)
	if !Verify(d, key, msg, good) {
		t.Fatal("correct digest rejected")
	}
	if Verify(d, key, msg, good^1) {
		t.Fatal("tampered digest accepted")
	}
	if Verify(d, key^1, msg, good) {
		t.Fatal("digest under wrong key accepted")
	}
}

func TestDigesterNamesDistinct(t *testing.T) {
	ds := []Digester{NewHalfSipHashDigester(), NewCRC32Digester(), SHA256Digester{}}
	names := make(map[string]bool)
	for _, d := range ds {
		if names[d.Name()] {
			t.Fatalf("duplicate digester name %q", d.Name())
		}
		names[d.Name()] = true
	}
}

func TestKeyedCRC32KeyMatters(t *testing.T) {
	c := NewKeyedCRC32()
	msg := []byte("probe util")
	if c.Sum32(1, msg) == c.Sum32(2, msg) {
		t.Error("key change did not change CRC32 PRF output")
	}
	cc := NewKeyedCRC32Castagnoli()
	if c.Sum32(1, msg) == cc.Sum32(1, msg) {
		t.Error("IEEE and Castagnoli polynomials produced identical output")
	}
}

// TestKeyedCRC32MatchesEnvelope holds the slicing-by-8 pass, in Sum32 and
// in SumBatch32, equal to its definition: crc32.Update over
// key_le || data || key_le, for both polynomials, data lengths 0..199 and
// random keys.
func TestKeyedCRC32MatchesEnvelope(t *testing.T) {
	r := NewSeededRand(0xC4C32)
	for _, tc := range []struct {
		name string
		prf  KeyedCRC32
		tab  *crc32.Table
	}{
		{"ieee", NewKeyedCRC32(), crc32.MakeTable(crc32.IEEE)},
		{"castagnoli", NewKeyedCRC32Castagnoli(), crc32.MakeTable(crc32.Castagnoli)},
	} {
		for round := 0; round < 8; round++ {
			key := r.Uint64()
			switch round {
			case 0:
				key = 0
			case 1:
				key = ^uint64(0)
			}
			datas := make([][]byte, 200)
			want := make([]uint32, len(datas))
			for n := range datas {
				env := make([]byte, 8+n+8)
				binary.LittleEndian.PutUint64(env, key)
				for i := 8; i < 8+n; i++ {
					env[i] = byte(r.Uint64())
				}
				binary.LittleEndian.PutUint64(env[8+n:], key)
				datas[n] = env[8 : 8+n]
				want[n] = crc32.Update(0, tc.tab, env)
				if got := tc.prf.Sum32(key, datas[n]); got != want[n] {
					t.Fatalf("%s key %#x len %d: Sum32 = %#x, envelope CRC %#x", tc.name, key, n, got, want[n])
				}
			}
			got := make([]uint32, len(datas))
			tc.prf.SumBatch32(key, datas, got)
			for n := range got {
				if got[n] != want[n] {
					t.Fatalf("%s key %#x len %d: SumBatch32 = %#x, envelope CRC %#x", tc.name, key, n, got[n], want[n])
				}
			}
		}
	}
}

func TestSHA256DigesterStable(t *testing.T) {
	var d SHA256Digester
	f := func(key uint64, msg []byte) bool {
		return d.Sum32(key, msg) == d.Sum32(key, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
	if d.Sum32(1, []byte("x")) == d.Sum32(2, []byte("x")) {
		t.Error("key not absorbed")
	}
}

func BenchmarkKDFDerive(b *testing.B) {
	for _, tc := range []struct {
		name string
		kdf  KDF
	}{
		{"halfsiphash-r1", KDF{}},
		{"crc32-r1", KDF{PRF: NewKeyedCRC32()}},
		{"halfsiphash-r4", KDF{Rounds: 4}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = tc.kdf.Derive(uint64(i), 0xabcdef)
			}
		})
	}
}

func BenchmarkDigesters(b *testing.B) {
	msg := make([]byte, 40)
	for _, d := range []Digester{NewHalfSipHashDigester(), NewCRC32Digester(), SHA256Digester{}} {
		b.Run(d.Name(), func(b *testing.B) {
			b.SetBytes(int64(len(msg)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = d.Sum32(0x0123456789abcdef, msg)
			}
		})
	}
}

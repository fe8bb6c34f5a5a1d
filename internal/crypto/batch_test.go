package crypto

import (
	"fmt"
	"testing"
)

// batchVectors returns inputs exercising every block-boundary case of the
// kernels: empty, sub-block, exact blocks, and long tails.
func batchVectors() [][]byte {
	r := NewSeededRand(0xBA7C4)
	sizes := []int{0, 1, 3, 4, 5, 8, 11, 16, 23, 64, 129}
	out := make([][]byte, 0, len(sizes))
	for _, n := range sizes {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(r.Uint64())
		}
		out = append(out, b)
	}
	return out
}

// TestSumBatch32MatchesSum32 pins the batch kernels to the one-shot path:
// a batch digest must be bit-identical to Sum32 for every digester, both
// the amortized kernels and the generic fallback.
func TestSumBatch32MatchesSum32(t *testing.T) {
	datas := batchVectors()
	digesters := []Digester{
		NewCRC32Digester(),
		NewHalfSipHashDigester(),
		SHA256Digester{}, // no kernel: exercises the fallback
	}
	for _, d := range digesters {
		for _, key := range []uint64{0, 1, 0x0123456789abcdef, ^uint64(0)} {
			out := make([]uint32, len(datas))
			SignBatch(d, key, datas, out)
			for i, data := range datas {
				if want := d.Sum32(key, data); out[i] != want {
					t.Errorf("%s key %#x len %d: batch %#x, single %#x", d.Name(), key, len(data), out[i], want)
				}
			}
		}
	}
}

// TestVerifyBatch checks acceptance of genuine digests and rejection of
// per-item tampering without poisoning neighbours.
func TestVerifyBatch(t *testing.T) {
	d := NewHalfSipHashDigester()
	key := uint64(0xfeedface)
	datas := batchVectors()
	got := make([]uint32, len(datas))
	ok := make([]bool, len(datas))
	SignBatch(d, key, datas, got)
	if n := VerifyBatch(d, key, datas, got, ok); n != len(datas) {
		t.Fatalf("genuine batch: %d/%d verified", n, len(datas))
	}
	// Flip one digest: only that item fails.
	got[3] ^= 1
	if n := VerifyBatch(d, key, datas, got, ok); n != len(datas)-1 {
		t.Fatalf("tampered batch: %d/%d verified, want %d", n, len(datas), len(datas)-1)
	}
	for i, o := range ok {
		if (i == 3) == o {
			t.Errorf("item %d: ok=%v", i, o)
		}
	}
	// Wrong key: everything fails.
	got[3] ^= 1
	if n := VerifyBatch(d, key^1, datas, got, ok); n != 0 {
		t.Fatalf("wrong key: %d items verified", n)
	}
}

// TestBatchAllocs pins the steady-state batch paths at zero allocations.
func TestBatchAllocs(t *testing.T) {
	for _, d := range []Digester{NewCRC32Digester(), NewHalfSipHashDigester()} {
		datas := batchVectors()
		got := make([]uint32, len(datas))
		ok := make([]bool, len(datas))
		SignBatch(d, 7, datas, got)
		VerifyBatch(d, 7, datas, got, ok) // warm the scratch pool
		if n := testing.AllocsPerRun(100, func() {
			SignBatch(d, 7, datas, got)
		}); n != 0 {
			t.Errorf("%s SignBatch: %v allocs/op, want 0", d.Name(), n)
		}
		if n := testing.AllocsPerRun(100, func() {
			VerifyBatch(d, 7, datas, got, ok)
		}); n != 0 {
			t.Errorf("%s VerifyBatch: %v allocs/op, want 0", d.Name(), n)
		}
	}
}

func BenchmarkSignBatch(b *testing.B) {
	for _, d := range []Digester{NewCRC32Digester(), NewHalfSipHashDigester()} {
		// 32 messages of the control-channel digest-input size.
		datas := make([][]byte, 32)
		for i := range datas {
			datas[i] = make([]byte, 23)
		}
		out := make([]uint32, len(datas))
		b.Run(fmt.Sprintf("%s/w32", d.Name()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				SignBatch(d, 7, datas, out)
			}
		})
	}
}

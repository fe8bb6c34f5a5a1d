package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// mapTracker is SeqTracker as it was before the issue-ordered slice: a set
// of outstanding numbers in a map. It lives on as the reference the slice
// is driven against (below the top of the 32-bit space, where the old
// Next wrapped; TestSeqTrackerResumeAndSkip covers the top).
type mapTracker struct {
	next        uint32
	outstanding map[uint32]bool
}

func newMapTracker() *mapTracker {
	return &mapTracker{next: 1, outstanding: make(map[uint32]bool)}
}

func (s *mapTracker) Next() uint32 {
	n := s.next
	s.next++
	s.outstanding[n] = true
	return n
}

func (s *mapTracker) Settle(seq uint32) error {
	if !s.outstanding[seq] {
		return fmt.Errorf("core: response for unknown or already-settled seq %d", seq)
	}
	delete(s.outstanding, seq)
	return nil
}

func (s *mapTracker) Resume(next uint32) {
	if next > s.next {
		s.next = next
	}
	s.outstanding = make(map[uint32]bool)
}

func (s *mapTracker) SkipAhead(delta uint32) { s.next += delta }

func (s *mapTracker) Reset() {
	s.next = 1
	s.outstanding = make(map[uint32]bool)
}

// TestSeqTrackerMatchesMapModel drives the slice-backed tracker and the
// map-backed one it replaced with the same seeded streams: windows of
// 1..64 requests in flight answered out of order, answers that never come,
// duplicate and forged answers, SkipAhead(FloorLease) jumps, and now and
// then a Resume or a Reset. Every Next, Settle, Outstanding and Peek
// answers the same.
func TestSeqTrackerMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got, want := NewSeqTracker(), newMapTracker()
		settle := func(seq uint32) {
			t.Helper()
			gerr, werr := got.Settle(seq), want.Settle(seq)
			if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
				t.Fatalf("seed %d: Settle(%d) = %v, model %v", seed, seq, gerr, werr)
			}
		}
		for round := 0; round < 500; round++ {
			switch rng.Intn(40) {
			case 0:
				got.SkipAhead(FloorLease)
				want.SkipAhead(FloorLease)
			case 1:
				// Ahead of the counter or behind it (which must not move it).
				next := uint32(max(0, int64(got.Peek())+int64(rng.Intn(3*FloorLease))-FloorLease))
				got.Resume(next)
				want.Resume(next)
			case 2:
				got.Reset()
				want.Reset()
			}
			window := make([]uint32, 1+rng.Intn(64))
			for i := range window {
				g, w := got.Next(), want.Next()
				if g != w {
					t.Fatalf("seed %d: Next = %d, model %d", seed, g, w)
				}
				window[i] = g
			}
			rng.Shuffle(len(window), func(i, j int) { window[i], window[j] = window[j], window[i] })
			for _, seq := range window {
				switch rng.Intn(10) {
				case 0: // the answer never comes: stays outstanding
				case 1: // answered twice: the second must read as forged
					settle(seq)
					settle(seq)
				case 2: // an answer nobody asked for
					settle(seq + uint32(len(window)) + uint32(rng.Intn(1000)))
					settle(seq)
				default:
					settle(seq)
				}
			}
			if rng.Intn(4) == 0 {
				settle(uint32(rng.Intn(int(got.Peek())) + 1)) // anything ever issued
			}
			if g, w := got.Outstanding(), len(want.outstanding); g != w {
				t.Fatalf("seed %d round %d: Outstanding = %d, model %d", seed, round, g, w)
			}
			if g, w := got.Peek(), want.next; g != w {
				t.Fatalf("seed %d round %d: Peek = %d, model %d", seed, round, g, w)
			}
		}
	}
}

// TestSeqTrackerSteadyStateDoesNotAllocate: a request's Next and Settle
// reuse the slice once it has grown to the window.
func TestSeqTrackerSteadyStateDoesNotAllocate(t *testing.T) {
	s := NewSeqTracker()
	var window [32]uint32
	round := func() {
		for i := range window {
			window[i] = s.Next()
		}
		for _, seq := range window {
			if err := s.Settle(seq); err != nil {
				t.Fatal(err)
			}
		}
	}
	round()
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Fatalf("a window of Next and Settle allocates %.1f times after warm-up", n)
	}
}

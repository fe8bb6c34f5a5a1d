package netsim

// Fault injection: deterministic packet loss and bit corruption built as
// link taps, for exercising protocol behaviour under unreliable links
// (KMP response loss, probe loss, garbled feedback).

import (
	"fmt"
	"math"
)

// LossTap returns a tap that drops every packet whose deterministic
// per-packet draw falls below rate (0 = never, 1 = always). The stream is
// reproducible from the seed. It panics unless rate is a real number in
// [0, 1].
func LossTap(rate float64, seed uint64) Tap {
	if math.IsNaN(rate) || rate < 0 || rate > 1 {
		panic(fmt.Errorf("netsim: loss rate %v outside [0,1]", rate))
	}
	state := seed
	return func(data []byte) []byte {
		state = splitmix(state)
		draw := float64(state>>11) / float64(1<<53)
		if draw < rate {
			return nil
		}
		return data
	}
}

// CorruptTap returns a tap that flips one deterministic bit in every Nth
// packet. The corrupted packet is a copy: the caller's buffer is never
// mutated, so a sender retransmitting the same bytes is unaffected. It
// panics unless the period n is >= 1 (1 corrupts every packet).
func CorruptTap(n int, seed uint64) Tap {
	if n < 1 {
		panic(fmt.Errorf("netsim: corruption period %d must be >= 1", n))
	}
	count := 0
	state := seed
	return func(data []byte) []byte {
		count++
		if count%n != 0 || len(data) == 0 {
			return data
		}
		state = splitmix(state)
		out := make([]byte, len(data))
		copy(out, data)
		byteIdx := int(state % uint64(len(out)))
		bit := byte(1) << ((state >> 8) % 8)
		out[byteIdx] ^= bit
		return out
	}
}

// ReorderTap returns a tap that reorders a packet stream with a
// deterministic three-slot pattern: packet 3k+1 is held (a copy) and
// dropped from its slot, packet 3k+2 passes through, and packet 3k+3 is
// replaced by the held packet. Against a pipelined sender this delivers
// later window members before earlier ones — the receiver's replay floor
// overtakes the held packet's sequence number, so its eventual delivery
// (or retransmission) draws a replay rejection and forces a re-sign with
// a fresh number. That is precisely the out-of-order hazard the windowed
// transport must absorb, produced without any randomness.
//
// The tap keeps its held packet across calls: a link that is torn down
// and tapped again gets a new ReorderTap, or the old stream's held packet
// surfaces in the new one.
func ReorderTap() Tap {
	count := 0
	var held []byte
	return func(data []byte) []byte {
		count++
		switch count % 3 {
		case 1:
			held = append(held[:0], data...)
			return nil // held back: its slot goes empty
		case 0:
			if held == nil {
				return data
			}
			out := held
			held = nil
			return out // delivered late, after its successors
		default:
			return data
		}
	}
}

// LinkFlapTap returns a tap emulating a flapping link: it passes a
// seeded, deterministic run of packets (1..maxUp), then drops a seeded
// run (1..maxDown), and repeats with fresh draws — so consecutive flap
// cycles differ but the whole schedule replays bit-for-bit from the
// seed. Composable with loss/corrupt taps via ChainTaps; install the
// same arguments on both directions of a link (with distinct seeds) to
// flap it symmetrically. It panics unless both phase bounds are >= 1.
func LinkFlapTap(maxUp, maxDown int, seed uint64) Tap {
	if maxUp < 1 || maxDown < 1 {
		panic(fmt.Errorf("netsim: flap phases must be >= 1 packet (got up=%d down=%d)", maxUp, maxDown))
	}
	state := seed
	draw := func(max int) int {
		state = splitmix(state)
		return 1 + int(state%uint64(max))
	}
	up := true
	left := draw(maxUp)
	return func(data []byte) []byte {
		pass := up
		left--
		if left == 0 {
			up = !up
			if up {
				left = draw(maxUp)
			} else {
				left = draw(maxDown)
			}
		}
		if pass {
			return data
		}
		return nil
	}
}

// ChainTaps composes taps left to right; a nil result short-circuits.
func ChainTaps(taps ...Tap) Tap {
	return func(data []byte) []byte {
		for _, t := range taps {
			if t == nil {
				continue
			}
			data = t(data)
			if data == nil {
				return nil
			}
		}
		return data
	}
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

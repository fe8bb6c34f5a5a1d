// Package attacker implements the paper's adversary models (§II-A):
//
//   - a control-plane MitM — the LD_PRELOAD-style backdoor in the switch
//     software stack that rewrites register operations, their responses,
//     and PacketOut/PacketIn traffic between the gRPC agent and the
//     driver;
//   - a link MitM — an on-path adversary (compromised neighbor rerouting
//     feedback through its host) that rewrites DP-DP messages in flight;
//   - replay, digest brute-force, and alert-flood (DoS) adversaries used
//     by the security-analysis experiments (§VIII).
//
// Each adversary is a constructor producing the hook or tap to install,
// plus counters of what it touched.
package attacker

import (
	"encoding/binary"
	"sync"

	"p4auth/internal/core"
	"p4auth/internal/netsim"
	"p4auth/internal/switchos"
)

// CtrlPlaneMitM rewrites C-DP traffic inside the switch software stack.
type CtrlPlaneMitM struct {
	mu sync.Mutex
	// RewriteRegWrite, when set, maps an intended write value to the
	// attacker's value for the named register.
	RewriteRegWrite func(reg string, index uint32, value uint64) uint64
	// RewriteReadResult, when set, maps a read result to a forged one.
	RewriteReadResult func(reg string, index uint32, value uint64) uint64
	// RewriteMessage, when set, mutates decoded P4Auth messages crossing
	// the stack in either direction (PacketOut down, PacketIn up);
	// returning false leaves the message untouched. The message is valid
	// only for the call.
	RewriteMessage func(m *core.Message, toDataPlane bool) bool

	Rewritten int // operations altered
	Seen      int // operations observed

	// buf is the decode target of every message the hooks inspect, under
	// mu, so that looking does not allocate; RewriteMessage may not keep
	// the message it is handed.
	buf core.MessageBuf
}

// Hooks produces the interposition hooks to install on a switchos.Host
// boundary.
func (a *CtrlPlaneMitM) Hooks() *switchos.Hooks {
	rewritePacket := func(data []byte, down bool) []byte {
		a.mu.Lock()
		defer a.mu.Unlock()
		a.Seen++
		if a.RewriteMessage == nil {
			return data
		}
		m, err := a.buf.Decode(data)
		if err != nil {
			return data // not a P4Auth message; pass through
		}
		if !a.RewriteMessage(m, down) {
			return data
		}
		out, err := m.Encode()
		if err != nil {
			return data
		}
		a.Rewritten++
		return out
	}
	return &switchos.Hooks{
		OnRegOp: func(op *switchos.RegOp) {
			a.mu.Lock()
			defer a.mu.Unlock()
			a.Seen++
			if op.IsWrite && a.RewriteRegWrite != nil {
				nv := a.RewriteRegWrite(op.Name, op.Index, op.Value)
				if nv != op.Value {
					op.Value = nv
					a.Rewritten++
				}
			}
		},
		OnRegResult: func(op *switchos.RegOp, value *uint64) {
			a.mu.Lock()
			defer a.mu.Unlock()
			a.Seen++
			if a.RewriteReadResult != nil {
				nv := a.RewriteReadResult(op.Name, op.Index, *value)
				if nv != *value {
					*value = nv
					a.Rewritten++
				}
			}
		},
		OnPacketOut: func(data []byte) []byte { return rewritePacket(data, true) },
		OnPacketIn:  func(data []byte) []byte { return rewritePacket(data, false) },
	}
}

// LinkMitM rewrites DP-DP messages crossing a link (Fig. 3's adversary on
// the S4-S1 link).
type LinkMitM struct {
	mu sync.Mutex
	// Rewrite mutates decoded P4Auth messages in flight; returning false
	// passes the original through. Non-P4Auth packets always pass.
	Rewrite func(m *core.Message) bool
	// FixDigest, when true, models a naive attacker who recomputes a
	// digest with a guessed key after tampering.
	GuessKey   uint64
	FixDigest  bool
	DigestAlgo interface {
		Sum32(key uint64, data []byte) uint32
	}

	Seen      int
	Rewritten int
}

// Tap produces the netsim link tap to install.
func (a *LinkMitM) Tap() netsim.Tap {
	return func(data []byte) []byte {
		a.mu.Lock()
		defer a.mu.Unlock()
		a.Seen++
		if a.Rewrite == nil {
			return data
		}
		m, err := core.DecodeMessage(data)
		if err != nil {
			return data
		}
		if !a.Rewrite(m) {
			return data
		}
		if a.FixDigest && a.DigestAlgo != nil {
			_ = m.Sign(a.DigestAlgo, a.GuessKey)
		}
		out, err := m.Encode()
		if err != nil {
			return data
		}
		a.Rewritten++
		return out
	}
}

// ProbeUtilRewriter builds a LinkMitM rewrite that forges the utilization
// field in HULA-style probes (HdrFeedback aux bodies). The utilization is
// assumed to be the big-endian 32-bit field at byte offset utilOffset of
// the aux body.
func ProbeUtilRewriter(utilOffset int, forged uint32) func(*core.Message) bool {
	return func(m *core.Message) bool {
		if m.HdrType != core.HdrFeedback || len(m.Aux) < utilOffset+4 {
			return false
		}
		binary.BigEndian.PutUint32(m.Aux[utilOffset:], forged)
		return true
	}
}

// Replayer records P4Auth messages from a link and replays them later.
type Replayer struct {
	mu       sync.Mutex
	Recorded [][]byte
	// Match selects which messages to record.
	Match func(m *core.Message) bool
}

// Tap returns a passive recording tap.
func (r *Replayer) Tap() netsim.Tap {
	return func(data []byte) []byte {
		r.mu.Lock()
		defer r.mu.Unlock()
		if m, err := core.DecodeMessage(data); err == nil {
			if r.Match == nil || r.Match(m) {
				cp := make([]byte, len(data))
				copy(cp, data)
				r.Recorded = append(r.Recorded, cp)
			}
		}
		return data
	}
}

// Take removes and returns the oldest recorded message, or nil.
func (r *Replayer) Take() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.Recorded) == 0 {
		return nil
	}
	m := r.Recorded[0]
	r.Recorded = r.Recorded[1:]
	return m
}

// BruteForcer enumerates digests for a forged message (§VIII "Digest
// size"): each wrong guess trips an alert, which is the defence.
type BruteForcer struct {
	// Forged is the message to authenticate by guessing.
	Forged *core.Message
}

// Guesses yields the forged message signed with successive digest guesses
// starting at `start`, up to n messages.
func (b *BruteForcer) Guesses(start uint32, n int) ([][]byte, error) {
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		m := *b.Forged
		if b.Forged.Reg != nil {
			reg := *b.Forged.Reg
			m.Reg = &reg
		}
		if b.Forged.Kx != nil {
			kx := *b.Forged.Kx
			m.Kx = &kx
		}
		m.Digest = start + uint32(i)
		enc, err := m.Encode()
		if err != nil {
			return nil, err
		}
		out = append(out, enc)
	}
	return out, nil
}

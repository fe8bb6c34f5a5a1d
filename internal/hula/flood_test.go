package hula

import (
	"encoding/binary"
	"fmt"
	"testing"

	"p4auth/internal/core"
	"p4auth/internal/crypto"
)

// floodMode is one way of installing a switch's probe replication entry.
type floodMode struct {
	name    string
	install func(s *Switch, ingress int, out []int) error
	// losing is how many replicas a probe that loses to the current best
	// path yields on a two-port flood group.
	losing int
}

var floodModes = []floodMode{
	{"flood", (*Switch).SetProbeFlood, 2},
	{"advertise", (*Switch).SetProbeAdvertise, 0},
}

// probeRig is one HULA switch whose ports 1 and 2 receive probes and
// replicate them to ports 3 and 4, with every port keyed when secure.
type probeRig struct {
	t      *testing.T
	sw     *Switch
	secure bool
	dig    crypto.Digester
	keys   [5]uint64
	seqs   [5]uint32
}

func newProbeRig(t *testing.T, secure bool, mode floodMode) *probeRig {
	t.Helper()
	p := DefaultParams(1, 4)
	p.Secure = secure
	sw, err := NewSwitch("relay", p, 7)
	if err != nil {
		t.Fatal(err)
	}
	r := &probeRig{t: t, sw: sw, secure: secure}
	if secure {
		if r.dig, err = sw.Cfg.Digester(); err != nil {
			t.Fatal(err)
		}
		for port := 1; port <= 4; port++ {
			r.keys[port] = 0x9e3779b97f4a7c15 * uint64(port)
			if err := sw.Host.SW.RegisterWrite(core.RegKeysV0, port, r.keys[port]); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, in := range []int{1, 2} {
		if err := mode.install(sw, in, []int{3, 4}); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// probe delivers one probe for dst carrying util on port at virtual time
// at, and returns how many replicas left the switch.
func (r *probeRig) probe(port int, dst uint16, util uint32, at uint64) int {
	r.t.Helper()
	pkt, err := ProbePacket(dst, r.secure)
	if err != nil {
		r.t.Fatal(err)
	}
	if r.secure {
		msg, err := core.DecodeMessage(pkt)
		if err != nil {
			r.t.Fatal(err)
		}
		r.seqs[port]++
		msg.SeqNum = r.seqs[port]
		binary.BigEndian.PutUint32(msg.Aux[ProbeUtilOffset:], util)
		if err := msg.Sign(r.dig, r.keys[port]); err != nil {
			r.t.Fatal(err)
		}
		pkt = msg.AppendEncode(nil)
	} else {
		binary.BigEndian.PutUint32(pkt[1+ProbeUtilOffset:], util)
	}
	r.sw.Host.SW.SetNow(at)
	io, err := r.sw.Host.NetworkPacket(port, pkt)
	if err != nil {
		r.t.Fatal(err)
	}
	if len(io.PacketIns) != 0 {
		r.t.Fatalf("probe on port %d raised %d PacketIns", port, len(io.PacketIns))
	}
	return len(io.NetOut)
}

func (r *probeRig) reg(name string, idx int) uint64 {
	r.t.Helper()
	v, err := r.sw.Host.SW.RegisterRead(name, idx)
	if err != nil {
		r.t.Fatal(err)
	}
	return v
}

// TestProbeReplicationByVerdict pins what a switch re-advertises. A probe
// that loses to the current best path (worse utilization, not from the
// best hop) is still verified and counted in pa_fb_ok and leaves the best
// path as it was; how many replicas it yields is the flood entry's choice.
// A better probe and a probe from the best hop always flood.
func TestProbeReplicationByVerdict(t *testing.T) {
	for _, secure := range []bool{true, false} {
		for _, mode := range floodModes {
			t.Run(fmt.Sprintf("secure=%v/%s", secure, mode.name), func(t *testing.T) {
				r := newProbeRig(t, secure, mode)
				fbOK := func(port int) uint64 {
					if !secure {
						return 0
					}
					return r.reg(core.RegFbOK, port)
				}
				const dst = 9
				// The first probe claims the route.
				if n := r.probe(1, dst, 500, 1000); n != 2 {
					t.Fatalf("first probe: %d replicas, want 2", n)
				}
				// A worse probe from a port that is not the best hop loses.
				ok2 := fbOK(2)
				if n := r.probe(2, dst, 800, 2000); n != mode.losing {
					t.Fatalf("losing probe: %d replicas, want %d", n, mode.losing)
				}
				if secure && fbOK(2) != ok2+1 {
					t.Fatalf("losing probe: pa_fb_ok[2] %d -> %d, want it counted", ok2, fbOK(2))
				}
				if bh, bu := r.reg(RegBestHop, dst), r.reg(RegBestUtil, dst); bh != 1 || bu != 500 {
					t.Fatalf("losing probe moved the best path to hop %d util %d", bh, bu)
				}
				// The best hop's own probe refreshes it, even when worse.
				if n := r.probe(1, dst, 600, 3000); n != 2 {
					t.Fatalf("probe from the best hop: %d replicas, want 2", n)
				}
				if bu := r.reg(RegBestUtil, dst); bu != 600 {
					t.Fatalf("best util %d after the best hop's refresh, want 600", bu)
				}
				// A better probe takes the route and floods.
				if n := r.probe(2, dst, 100, 4000); n != 2 {
					t.Fatalf("better probe: %d replicas, want 2", n)
				}
				if bh := r.reg(RegBestHop, dst); bh != 2 {
					t.Fatalf("better probe: best hop %d, want 2", bh)
				}
				if secure {
					if bad := r.reg(core.RegFbBad, 1) + r.reg(core.RegFbBad, 2); bad != 0 {
						t.Fatalf("%d probes failed verification", bad)
					}
				}
			})
		}
	}
}

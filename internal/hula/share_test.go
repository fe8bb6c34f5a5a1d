package hula

import (
	"reflect"
	"testing"

	"p4auth/internal/p4rt"
	"p4auth/internal/pisa"
)

// TestNewSwitchSharesExactCompilation covers the switches the benchmark's
// workloads build outside the fat tree (dpdp_probes' 8-port switch and
// kmp_rollover's two 2-port switches), secure and insecure: switches whose
// Params differ at most in SwitchID share one compilation, deeply equal to
// a fresh compile of a fresh BuildProgram, and carry BuildProgram's config.
func TestNewSwitchSharesExactCompilation(t *testing.T) {
	for _, base := range []Params{DefaultParams(1, 8), DefaultParams(1, 2)} {
		for _, secure := range []bool{true, false} {
			p := base
			p.Secure = secure
			a, err := NewSwitch("a", p, 1)
			if err != nil {
				t.Fatal(err)
			}
			other := p
			other.SwitchID = 2
			b, err := NewSwitch("b", other, 2)
			if err != nil {
				t.Fatal(err)
			}
			shared := a.Host.SW.Compiled()
			if b.Host.SW.Compiled() != shared {
				t.Errorf("%+v: two switches compiled twice", p)
			}
			prog, cfg, err := BuildProgram(p)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := pisa.Compile(prog, pisa.BMv2Profile())
			if err != nil {
				t.Fatal(err)
			}
			p4rt.InfoOf(fresh) // the shared one's hosts built its p4info
			if !reflect.DeepEqual(fresh, shared) {
				t.Errorf("%+v: shared compilation differs from a fresh one", p)
			}
			if a.Cfg != cfg || b.Cfg != cfg {
				t.Errorf("%+v: config %+v, BuildProgram gives %+v", p, a.Cfg, cfg)
			}
		}
	}
}

// TestNewSwitchBindsSwitchID: two switches over one compilation each
// deliver the data addressed to their own SwitchID to the host port and
// route the other's onward.
func TestNewSwitchBindsSwitchID(t *testing.T) {
	p := DefaultParams(1, 2)
	p.Secure = false
	var sws [2]*Switch
	for i := range sws {
		p.SwitchID = 0xFFFE + i
		sw, err := NewSwitch("s", p, 1)
		if err != nil {
			t.Fatal(err)
		}
		sws[i] = sw
	}
	if sws[0].Host.SW.Compiled() != sws[1].Host.SW.Compiled() {
		t.Fatal("switches differing only in SwitchID compiled twice")
	}
	for i, sw := range sws {
		for j := range sws {
			pkt, err := DataPacket(uint16(0xFFFE+j), 7, 0)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sw.Host.SW.Process(pisa.Packet{Data: pkt, Port: 1})
			if err != nil {
				t.Fatal(err)
			}
			toHost := len(res.Emissions) == 1 && res.Emissions[0].Port == p.HostPort
			if toHost != (i == j) {
				t.Errorf("switch %#x, data for %#x: emissions %+v", 0xFFFE+i, 0xFFFE+j, res.Emissions)
			}
		}
	}
}

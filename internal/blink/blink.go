// Package blink is a full-pipeline miniature of Blink (Holterbach et al.,
// NSDI 2019), the data-plane fast-reroute system of the paper's Table I.
// The data plane counts failure evidence (retransmission-marked packets)
// per prefix in a register window and, past a threshold, autonomously
// flips traffic from the primary to the backup next hop — entirely in the
// data plane, no controller in the loop. The controller maintains the
// per-prefix next-hop list in registers over C-DP; that update message is
// what the paper's adversary rewrites ("poisoning of fast rerouting
// decision"), steering rerouted traffic into a blackhole.
package blink

import (
	"errors"

	"p4auth/internal/app"
	"p4auth/internal/controller"
	"p4auth/internal/core"
	"p4auth/internal/pisa"
)

// PTypeData tags forwarded packets.
const PTypeData = 0xB1

// Register names: the per-prefix next-hop list (primary, backup) and the
// failure-evidence window.
const (
	RegPrimary  = "bl_primary"
	RegBackup   = "bl_backup"
	RegEvidence = "bl_evidence"
	RegFailed   = "bl_failed" // latched failover decision per prefix
)

// FailThreshold is the evidence count that trips the reroute.
const FailThreshold = 8

// Params configures the system.
type Params struct {
	Secure bool
	// Name identifies the switch at its controller; empty means the
	// historical "edge". Fleet deployments run one instance per pod and
	// need distinct names within a shared controller namespace.
	Name string
	// Seed perturbs the switch and controller PRNGs; zero keeps the
	// historical seeds, so existing runs are unchanged.
	Seed uint64
}

// name returns the effective switch name.
func (p Params) name() string {
	if p.Name == "" {
		return "edge"
	}
	return p.Name
}

// prefixes is the size of the small prefix table a system tracks.
const prefixes = 16

// DefaultParams configures a system.
func DefaultParams(secure bool) Params { return Params{Secure: secure} }

// System is a running Blink deployment.
type System struct {
	*app.App
	Params Params

	TamperedWrites int
}

var pktDef = &pisa.HeaderDef{Name: "blp", Fields: []pisa.FieldDef{
	{Name: "prefix", Width: 16},
	{Name: "retrans", Width: 8},
}}

func buildProgram() *pisa.Program {
	prog := &pisa.Program{
		Name:    "blink",
		Headers: []*pisa.HeaderDef{core.PTypeHeader(), pktDef},
		Parser: []pisa.ParserState{
			{Name: pisa.ParserStart, Extract: core.HdrPType,
				Select:      pisa.F(core.HdrPType, "v"),
				Transitions: map[uint64]string{PTypeData: "bl_data"}},
			{Name: "bl_data", Extract: "blp"},
		},
		DeparseOrder: []string{core.HdrPType, "blp"},
		Metadata: []pisa.FieldDef{
			{Name: "bl_fail", Width: 8},
			{Name: "bl_ev", Width: 32},
			{Name: "bl_nh", Width: 16},
		},
		Registers: []*pisa.RegisterDef{
			{Name: RegPrimary, Width: 16, Entries: prefixes},
			{Name: RegBackup, Width: 16, Entries: prefixes},
			{Name: RegEvidence, Width: 32, Entries: prefixes},
			{Name: RegFailed, Width: 8, Entries: prefixes},
		},
	}
	m := func(f string) pisa.FieldRef { return pisa.F(pisa.MetaHeader, f) }
	prefix := pisa.R(pisa.F("blp", "prefix"))

	ops := []pisa.Op{
		// Failure evidence: retransmission-marked packets bump the window;
		// the threshold latches the failover (a single RMW each).
		pisa.If(pisa.Eq(pisa.R(pisa.F("blp", "retrans")), pisa.C(1)), []pisa.Op{
			pisa.RegRMW(m("bl_ev"), RegEvidence, prefix, pisa.RMWAdd, pisa.C(1)),
			pisa.If(pisa.Cond{L: pisa.R(m("bl_ev")), R: pisa.C(FailThreshold - 1), Cmp: pisa.CmpGe}, []pisa.Op{
				pisa.RegWrite(RegFailed, prefix, pisa.C(1)),
			}),
		}, []pisa.Op{
			pisa.RegRead(m("bl_fail"), RegFailed, prefix),
		}),
		// Reroute decision entirely in the data plane: failed prefixes use
		// the backup next hop. (Retransmission packets read bl_fail via
		// the latch they may have just set; the next packet sees it.)
		pisa.If(pisa.Eq(pisa.R(m("bl_fail")), pisa.C(1)),
			[]pisa.Op{pisa.RegRead(m("bl_nh"), RegBackup, prefix)},
			[]pisa.Op{pisa.RegRead(m("bl_nh"), RegPrimary, prefix)},
		),
		pisa.Forward(pisa.R(m("bl_nh"))),
	}
	prog.Control = []pisa.Op{pisa.If(pisa.Valid("blp"), ops)}
	return prog
}

// New deploys the system with every prefix's primary and backup next hop
// written over C-DP.
func New(p Params, primary, backup uint64) (*System, error) {
	a, err := app.New(buildProgram(), app.Spec{
		Name: p.name(), Mode: app.ModeOf(p.Secure), Profile: pisa.TofinoProfile(), Ports: 8,
		Exposed: []string{RegPrimary, RegBackup, RegEvidence, RegFailed}, Seed: 0xB117 + p.Seed,
	})
	if err != nil {
		return nil, err
	}
	s := &System{App: a, Params: p}
	if p.Secure {
		if _, err := a.Ctrl.LocalKeyInit(p.name()); err != nil {
			return nil, err
		}
	}
	for i := 0; i < prefixes; i++ {
		if err := s.WriteNexthop(RegPrimary, uint32(i), primary); err != nil {
			return nil, err
		}
		if err := s.WriteNexthop(RegBackup, uint32(i), backup); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// WriteNexthop updates one next-hop list entry over C-DP — the message the
// adversary targets. On detection the controller retries through the
// quarantined driver path.
func (s *System) WriteNexthop(list string, prefix uint32, nexthop uint64) error {
	err := s.Write(list, prefix, nexthop)
	if err == nil {
		return nil
	}
	if !errors.Is(err, controller.ErrTampered) {
		return err
	}
	s.TamperedWrites++
	return s.Host.SW.RegisterWrite(list, int(prefix), nexthop)
}

// Packet forwards one packet; retrans marks failure evidence. It returns
// the egress port the pipeline chose (0 = dropped).
func (s *System) Packet(prefix uint16, retrans bool) (int, error) {
	rv := uint64(0)
	if retrans {
		rv = 1
	}
	body, err := pisa.PackHeader(pktDef, []uint64{uint64(prefix), rv})
	if err != nil {
		return 0, err
	}
	pkt := append([]byte{PTypeData}, body...)
	res, err := s.Host.NetworkPacket(1, pkt)
	if err != nil {
		return 0, err
	}
	if len(res.NetOut) == 0 {
		return 0, nil
	}
	return res.NetOut[0].Port, nil
}

// InstallNexthopRewriter installs the paper's adversary: next-hop list
// writes are redirected to the attacker's blackhole port.
func (s *System) InstallNexthopRewriter(blackhole uint64) error {
	return s.Rewrite(core.MsgWriteReq, []string{RegPrimary, RegBackup}, func(uint32, uint64) (uint64, bool) {
		return blackhole, true
	})
}

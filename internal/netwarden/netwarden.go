// Package netwarden is a full-pipeline miniature of NetWarden (Xing et
// al., USENIX Security 2020), the covert-timing-channel mitigator of the
// paper's Table I. The data plane measures inter-packet delays (IPD) per
// suspicious connection in registers — last arrival time, last IPD, and an
// accumulated jitter score — and enforces per-connection verdicts. The
// controller reads the jitter scores over C-DP, classifies low-jitter
// (too-regular) connections as covert channels, and writes block verdicts
// back. The paper's adversary rewrites those report/update messages so
// covert traffic evades; P4Auth detects the tampering and the controller
// falls back to the quarantined path.
package netwarden

import (
	"errors"

	"p4auth/internal/app"
	"p4auth/internal/controller"
	"p4auth/internal/core"
	"p4auth/internal/pisa"
)

// PTypeFlow tags monitored connection packets.
const PTypeFlow = 0xF1

// Ports.
const (
	InPort  = 1
	OutPort = 2
)

// Register names.
const (
	RegLastTS  = "nw_last_ts"
	RegLastIPD = "nw_last_ipd"
	RegJitter  = "nw_jitter"  // accumulated |IPD - lastIPD|
	RegPackets = "nw_packets" // samples per connection
	RegVerdict = "nw_verdict" // 1 = block/normalize
	RegBlocked = "nw_blocked" // blocked-packet counter
)

// Params configures the monitor.
type Params struct {
	Conns  int // tracked connection slots
	Secure bool
	// Name identifies the switch at its controller; empty means the
	// historical "ids". Fleet deployments run one instance per pod and
	// need distinct names within a shared controller namespace.
	Name string
	// Seed perturbs the switch and controller PRNGs; zero keeps the
	// historical seeds, so existing runs are unchanged.
	Seed uint64
}

// name returns the effective switch name.
func (p Params) name() string {
	if p.Name == "" {
		return "ids"
	}
	return p.Name
}

// DefaultParams tracks a small slot table.
func DefaultParams(secure bool) Params { return Params{Conns: 32, Secure: secure} }

// System is a running NetWarden deployment.
type System struct {
	*app.App
	Params Params

	// TamperedOps counts C-DP operations the controller saw rejected.
	TamperedOps int
}

var flowDef = &pisa.HeaderDef{Name: "nwf", Fields: []pisa.FieldDef{
	{Name: "conn", Width: 16},
}}

func buildProgram(p Params) *pisa.Program {
	prog := &pisa.Program{
		Name:    "netwarden",
		Headers: []*pisa.HeaderDef{core.PTypeHeader(), flowDef},
		Parser: []pisa.ParserState{
			{Name: pisa.ParserStart, Extract: core.HdrPType,
				Select:      pisa.F(core.HdrPType, "v"),
				Transitions: map[uint64]string{PTypeFlow: "nw_flow"}},
			{Name: "nw_flow", Extract: "nwf"},
		},
		DeparseOrder: []string{core.HdrPType, "nwf"},
		Metadata: []pisa.FieldDef{
			{Name: "nw_last", Width: 48},
			{Name: "nw_ipd", Width: 48},
			{Name: "nw_prev_ipd", Width: 48},
			{Name: "nw_diff", Width: 48},
			{Name: "nw_verd", Width: 8},
			{Name: "nw_scratch", Width: 48},
		},
		Registers: []*pisa.RegisterDef{
			{Name: RegLastTS, Width: 48, Entries: p.Conns},
			{Name: RegLastIPD, Width: 48, Entries: p.Conns},
			{Name: RegJitter, Width: 48, Entries: p.Conns},
			{Name: RegPackets, Width: 32, Entries: p.Conns},
			{Name: RegVerdict, Width: 8, Entries: p.Conns},
			{Name: RegBlocked, Width: 64, Entries: 1},
		},
	}

	m := func(f string) pisa.FieldRef { return pisa.F(pisa.MetaHeader, f) }
	conn := pisa.R(pisa.F("nwf", "conn"))
	now := pisa.R(m(pisa.MetaTimestamp))

	flowOps := []pisa.Op{
		// Verdict enforcement first.
		pisa.RegRead(m("nw_verd"), RegVerdict, conn),
		pisa.If(pisa.Eq(pisa.R(m("nw_verd")), pisa.C(1)),
			[]pisa.Op{
				pisa.RegRMW(m("nw_scratch"), RegBlocked, pisa.C(0), pisa.RMWAdd, pisa.C(1)),
				pisa.Drop(),
			},
			[]pisa.Op{
				// IPD measurement: swap in the new arrival time, derive
				// the IPD, accumulate |IPD - lastIPD| as the jitter score.
				pisa.RegRMW(m("nw_last"), RegLastTS, conn, pisa.RMWWrite, now),
				pisa.Sub(m("nw_ipd"), now, pisa.R(m("nw_last"))),
				// First packet has no IPD history: lastTS==0 -> skip both
				// the IPD swap and the score (a bogus first IPD would
				// pollute the jitter accumulator).
				pisa.If(pisa.Ne(pisa.R(m("nw_last")), pisa.C(0)), []pisa.Op{
					pisa.RegRMW(m("nw_prev_ipd"), RegLastIPD, conn, pisa.RMWWrite, pisa.R(m("nw_ipd"))),
					pisa.If(pisa.Gt(pisa.R(m("nw_ipd")), pisa.R(m("nw_prev_ipd"))),
						[]pisa.Op{pisa.Sub(m("nw_diff"), pisa.R(m("nw_ipd")), pisa.R(m("nw_prev_ipd")))},
						[]pisa.Op{pisa.Sub(m("nw_diff"), pisa.R(m("nw_prev_ipd")), pisa.R(m("nw_ipd")))},
					),
					pisa.RegRMW(m("nw_scratch"), RegJitter, conn, pisa.RMWAdd, pisa.R(m("nw_diff"))),
					pisa.RegRMW(m("nw_scratch"), RegPackets, conn, pisa.RMWAdd, pisa.C(1)),
				}),
				pisa.Forward(pisa.C(OutPort)),
			},
		),
	}
	prog.Control = []pisa.Op{pisa.If(pisa.Valid("nwf"), flowOps)}
	return prog
}

// New deploys the monitor.
func New(p Params) (*System, error) {
	a, err := app.New(buildProgram(p), app.Spec{
		Name: p.name(), Mode: app.ModeOf(p.Secure), Profile: pisa.TofinoProfile(), Ports: 4,
		Exposed: []string{RegJitter, RegPackets, RegVerdict, RegBlocked}, Seed: 0x93A + p.Seed,
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
	return s, nil
}

// Packet sends one packet of a connection at the given virtual time (ns);
// it reports whether the packet was forwarded (false = blocked).
func (s *System) Packet(conn uint16, atNs uint64) (bool, error) {
	body, err := pisa.PackHeader(flowDef, []uint64{uint64(conn)})
	if err != nil {
		return false, err
	}
	pkt := append([]byte{PTypeFlow}, body...)
	s.Host.SW.SetNow(atNs)
	res, err := s.Host.NetworkPacket(InPort, pkt)
	if err != nil {
		return false, err
	}
	return len(res.NetOut) > 0, nil
}

// Sweep runs one controller classification pass: connections with a mean
// jitter below thresholdNs (too regular — a timing channel) are blocked.
// Tampered reads fall back to the quarantined driver path, as in §VIII.
func (s *System) Sweep(meanJitterThresholdNs uint64) error {
	for c := 0; c < s.Params.Conns; c++ {
		jitter, err := s.Read(RegJitter, uint32(c))
		if err != nil {
			if !errors.Is(err, controller.ErrTampered) {
				return err
			}
			s.TamperedOps++
			if jitter, err = s.Host.SW.RegisterRead(RegJitter, c); err != nil {
				return err
			}
		}
		pkts, err := s.Read(RegPackets, uint32(c))
		if err != nil {
			if !errors.Is(err, controller.ErrTampered) {
				return err
			}
			s.TamperedOps++
			if pkts, err = s.Host.SW.RegisterRead(RegPackets, c); err != nil {
				return err
			}
		}
		if pkts < 4 {
			continue // not enough samples
		}
		verdict := uint64(0)
		if jitter/pkts < meanJitterThresholdNs {
			verdict = 1
		}
		if err := s.Write(RegVerdict, uint32(c), verdict); err != nil {
			if !errors.Is(err, controller.ErrTampered) {
				return err
			}
			s.TamperedOps++
			if err := s.Host.SW.RegisterWrite(RegVerdict, c, verdict); err != nil {
				return err
			}
		}
	}
	return nil
}

// Verdict reads a connection's current verdict from the data plane.
func (s *System) Verdict(conn int) (uint64, error) {
	return s.Host.SW.RegisterRead(RegVerdict, conn)
}

// InstallScoreInflater installs the paper's adversary: reported jitter
// scores are inflated so too-regular (covert) connections look noisy and
// classify as benign.
func (s *System) InstallScoreInflater() error {
	return s.Rewrite(core.MsgAck, []string{RegJitter}, func(_ uint32, v uint64) (uint64, bool) {
		return v*10 + 1_000_000, true
	})
}

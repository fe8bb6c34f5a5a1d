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

	"p4auth/internal/controller"
	"p4auth/internal/core"
	"p4auth/internal/crypto"
	"p4auth/internal/pisa"
	"p4auth/internal/switchos"
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
	Params Params
	Host   *switchos.Host
	Ctrl   *controller.Controller
	// Cfg is the P4Auth core configuration the switch booted with;
	// exported so a recovery path can re-Register the switch at a fresh
	// controller after a controller kill.
	Cfg core.Config

	// TamperedOps counts C-DP operations the controller saw rejected.
	TamperedOps int
}

var flowDef = &pisa.HeaderDef{Name: "nwf", Fields: []pisa.FieldDef{
	{Name: "conn", Width: 16},
}}

func buildProgram(p Params) (*pisa.Program, core.Config, error) {
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

	cfg := core.DefaultConfig(4, core.DigestCRC32)
	cfg.Insecure = !p.Secure
	exposed := []string{RegJitter, RegPackets, RegVerdict, RegBlocked}
	if err := core.AddToProgram(prog, cfg, core.Integration{Exposed: exposed}); err != nil {
		return nil, cfg, err
	}
	return prog, cfg, nil
}

// New deploys the monitor.
func New(p Params) (*System, error) {
	prog, cfg, err := buildProgram(p)
	if err != nil {
		return nil, err
	}
	sw, err := pisa.NewSwitch(prog, pisa.TofinoProfile(), pisa.WithRandom(crypto.NewSeededRand(0x93A+p.Seed)))
	if err != nil {
		return nil, err
	}
	if err := core.Boot(sw, cfg); err != nil {
		return nil, err
	}
	host := switchos.NewHost(p.name(), sw, switchos.DefaultCosts())
	ctrl := controller.New(crypto.NewSeededRand(0x93B+p.Seed))
	if err := ctrl.Register(p.name(), host, cfg, 0); err != nil {
		return nil, err
	}
	s := &System{Params: p, Host: host, Ctrl: ctrl, Cfg: cfg}
	if p.Secure {
		if _, err := ctrl.LocalKeyInit(p.name()); err != nil {
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

func (s *System) read(name string, index uint32) (uint64, error) {
	if s.Params.Secure {
		v, _, err := s.Ctrl.ReadRegister(s.Params.name(), name, index)
		return v, err
	}
	v, _, err := s.Ctrl.ReadRegisterInsecure(s.Params.name(), name, index)
	return v, err
}

func (s *System) write(name string, index uint32, v uint64) error {
	if s.Params.Secure {
		_, err := s.Ctrl.WriteRegister(s.Params.name(), name, index, v)
		return err
	}
	_, err := s.Ctrl.WriteRegisterInsecure(s.Params.name(), name, index, v)
	return err
}

// Sweep runs one controller classification pass: connections with a mean
// jitter below thresholdNs (too regular — a timing channel) are blocked.
// Tampered reads fall back to the quarantined driver path, as in §VIII.
func (s *System) Sweep(meanJitterThresholdNs uint64) error {
	for c := 0; c < s.Params.Conns; c++ {
		jitter, err := s.read(RegJitter, uint32(c))
		if err != nil {
			if !errors.Is(err, controller.ErrTampered) {
				return err
			}
			s.TamperedOps++
			if jitter, err = s.Host.SW.RegisterRead(RegJitter, c); err != nil {
				return err
			}
		}
		pkts, err := s.read(RegPackets, uint32(c))
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
		if err := s.write(RegVerdict, uint32(c), verdict); err != nil {
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
	ri, err := s.Host.Info.RegisterByName(RegJitter)
	if err != nil {
		return err
	}
	id := ri.ID
	return s.Host.Install(switchos.BoundaryAgentSDK, &switchos.Hooks{
		OnPacketIn: func(data []byte) []byte {
			m, err := core.DecodeMessage(data)
			if err != nil || m.Reg == nil || m.MsgType != core.MsgAck || m.Reg.RegID != id {
				return data
			}
			m.Reg.Value = m.Reg.Value*10 + 1_000_000
			out, eerr := m.Encode()
			if eerr != nil {
				return data
			}
			return out
		},
	})
}

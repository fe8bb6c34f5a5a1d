// Package routescout simulates RouteScout (Apostolaki et al., SOSR 2021),
// the ISP-edge performance-aware routing system of the paper's Fig. 2 and
// Fig. 16. The data plane splits outgoing traffic across two provider
// paths according to a split ratio held in a register and aggregates
// per-path latency statistics; the controller periodically pulls the
// aggregates over C-DP, recomputes the split (more traffic to the faster
// path), and writes it back.
//
// The paper implements RouteScout as a software simulation too (its source
// is unavailable); the edge switch here is a real pisa pipeline, while the
// in-data-plane passive latency estimation is modeled by the harness
// feeding observed per-path delays into the latency registers through the
// driver — inside the chip's trust boundary, which is exactly where the
// paper's threat model places it. The attack surface is the C-DP
// read/write path, which runs through the full untrusted switch stack.
package routescout

import (
	"errors"
	"fmt"
	"time"

	"p4auth/internal/controller"
	"p4auth/internal/core"
	"p4auth/internal/crypto"
	"p4auth/internal/deploy"
	"p4auth/internal/netsim"
	"p4auth/internal/pisa"
	"p4auth/internal/switchos"
	"p4auth/internal/trace"
)

// Register names.
const (
	RegSplit  = "rs_split"   // 0..256 scale: share of traffic on path 1
	RegLatSum = "rs_lat_sum" // per-path latency sums (µs), index = path-1
	RegLatCnt = "rs_lat_cnt" // per-path sample counts
)

// Data-plane header.
const HdrData = "rsdata"

// Mode selects how the controller talks to the switch.
type Mode int

// Modes: the three variants of §IX-B.
const (
	// ModeP4Auth uses authenticated PacketOut register access.
	ModeP4Auth Mode = iota + 1
	// ModeInsecure uses unauthenticated PacketOut access (DP-Reg-RW).
	ModeInsecure
	// ModeAPI uses the P4Runtime API stack.
	ModeAPI
)

// System is a running RouteScout deployment: one edge switch, two paths,
// a sink, and the controller loop.
type System struct {
	Net    *netsim.Network
	Ctrl   *controller.Controller
	Switch *deploy.Switch
	Mode   Mode
	name   string
	node   *deploy.SwitchNode

	// Split is the current split (0..256 for path 1).
	Split uint64
	// TamperedReads counts reads the controller rejected.
	TamperedReads int
	// Epochs counts completed controller epochs.
	Epochs int

	// per-path delivered byte counters (measured at the sink).
	pathBytes [2]uint64
	// latency accumulators pending flush into DP registers.
	latSumUs [2]uint64
	latCnt   [2]uint64
}

// Config for the experiment.
type Config struct {
	Mode Mode
	// Path delays (path 2 slower by default).
	Path1Delay, Path2Delay time.Duration
	// EpochLen is the controller polling period.
	EpochLen time.Duration
	// InitialSplit is the starting share for path 1 (0..256).
	InitialSplit uint64
	// Name identifies the switch at its controller; empty means the
	// historical "edge". Fleet deployments run one instance per pod and
	// need distinct names.
	Name string
	// Seed perturbs the switch and controller PRNGs; zero keeps the
	// historical seeds, so existing runs are unchanged.
	Seed uint64
}

// name returns the effective switch name.
func (c Config) name() string {
	if c.Name == "" {
		return "edge"
	}
	return c.Name
}

// DefaultConfig mirrors Fig. 2: path 1 is the better path.
func DefaultConfig(mode Mode) Config {
	return Config{
		Mode:         mode,
		Path1Delay:   2 * time.Millisecond,
		Path2Delay:   6 * time.Millisecond,
		EpochLen:     50 * time.Millisecond,
		InitialSplit: 128,
	}
}

func dataDef() *pisa.HeaderDef {
	return &pisa.HeaderDef{Name: HdrData, Fields: []pisa.FieldDef{
		{Name: "flow", Width: 32},
		{Name: "ts", Width: 48},
		{Name: "path", Width: 8},
	}}
}

// buildProgram creates the RouteScout edge data plane: split-based path
// selection plus the stat registers, with P4Auth woven in unless insecure.
func buildProgram(insecure bool) (*pisa.Program, core.Config, error) {
	prog := &pisa.Program{
		Name:    "routescout",
		Headers: []*pisa.HeaderDef{core.PTypeHeader(), dataDef()},
		Parser: []pisa.ParserState{
			{Name: pisa.ParserStart, Extract: core.HdrPType,
				Select:      pisa.F(core.HdrPType, "v"),
				Transitions: map[uint64]string{0xD0: "rs_data"}},
			{Name: "rs_data", Extract: HdrData},
		},
		DeparseOrder: []string{core.HdrPType, HdrData},
		Metadata: []pisa.FieldDef{
			{Name: "rs_h", Width: 32},
			{Name: "rs_split_v", Width: 32},
		},
		Registers: []*pisa.RegisterDef{
			{Name: RegSplit, Width: 32, Entries: 1},
			{Name: RegLatSum, Width: 64, Entries: 2},
			{Name: RegLatCnt, Width: 32, Entries: 2},
		},
		Control: []pisa.Op{
			pisa.If(pisa.Valid(HdrData), []pisa.Op{
				pisa.Hash(pisa.F(pisa.MetaHeader, "rs_h"), pisa.HashCRC32, pisa.R(pisa.F(HdrData, "flow"))),
				pisa.And(pisa.F(pisa.MetaHeader, "rs_h"), pisa.R(pisa.F(pisa.MetaHeader, "rs_h")), pisa.C(0xFF)),
				pisa.RegRead(pisa.F(pisa.MetaHeader, "rs_split_v"), RegSplit, pisa.C(0)),
				pisa.If(pisa.Lt(pisa.R(pisa.F(pisa.MetaHeader, "rs_h")), pisa.R(pisa.F(pisa.MetaHeader, "rs_split_v"))),
					[]pisa.Op{
						pisa.Set(pisa.F(HdrData, "path"), pisa.C(1)),
						pisa.Forward(pisa.C(1)),
					},
					[]pisa.Op{
						pisa.Set(pisa.F(HdrData, "path"), pisa.C(2)),
						pisa.Forward(pisa.C(2)),
					}),
			}),
		},
	}
	cfg := core.DefaultConfig(4, core.DigestCRC32)
	cfg.Insecure = insecure
	err := core.AddToProgram(prog, cfg, core.Integration{
		Exposed: []string{RegSplit, RegLatSum, RegLatCnt},
	})
	return prog, cfg, err
}

// New assembles the system.
func New(c Config) (*System, error) {
	prog, cfg, err := buildProgram(c.Mode == ModeInsecure)
	if err != nil {
		return nil, err
	}
	sw, err := pisa.NewSwitch(prog, pisa.TofinoProfile(), pisa.WithRandom(crypto.NewSeededRand(0x2005C0+c.Seed)))
	if err != nil {
		return nil, err
	}
	if err := core.Boot(sw, cfg); err != nil {
		return nil, err
	}
	info := switchos.NewHost(c.name(), sw, switchos.DefaultCosts())

	s := &System{
		Net:    netsim.NewNetwork(),
		Ctrl:   controller.New(crypto.NewSeededRand(0x2005C1+c.Seed)),
		Switch: &deploy.Switch{Host: info, Cfg: cfg},
		Mode:   c.Mode,
		name:   c.name(),
		Split:  c.InitialSplit,
	}
	if err := s.Ctrl.Register(c.name(), info, cfg, 100*time.Microsecond); err != nil {
		return nil, err
	}
	if err := sw.RegisterWrite(RegSplit, 0, c.InitialSplit); err != nil {
		return nil, err
	}

	s.node = &deploy.SwitchNode{Host: info}
	s.Net.AddNode(c.name(), s.node)
	s.Net.AddNode("sink", netsim.HandlerFunc(func(net *netsim.Network, _ *netsim.Node, _ int, data []byte) {
		s.onDeliver(net, data)
	}))
	s.Net.MustConnect(c.name(), 1, "sink", 1, c.Path1Delay, 0)
	s.Net.MustConnect(c.name(), 2, "sink", 2, c.Path2Delay, 0)
	return s, nil
}

var rsDataDef = dataDef()

// onDeliver measures per-path latency at the far end and accumulates it
// for the next flush into the data-plane registers.
func (s *System) onDeliver(net *netsim.Network, data []byte) {
	if len(data) < 1 || data[0] != 0xD0 {
		return
	}
	vals, err := pisa.UnpackHeader(rsDataDef, data[1:])
	if err != nil {
		return
	}
	sent := time.Duration(vals[1])
	path := int(vals[2])
	if path < 1 || path > 2 {
		return
	}
	lat := net.Sim.Now() - sent
	s.pathBytes[path-1] += uint64(len(data))
	s.latSumUs[path-1] += uint64(lat / time.Microsecond)
	s.latCnt[path-1]++
}

// flushStats writes the accumulated passive latency estimates into the
// data-plane registers (the in-chip estimation path; trusted).
func (s *System) flushStats() error {
	for p := 0; p < 2; p++ {
		if err := s.Switch.Host.SW.RegisterWrite(RegLatSum, p, s.latSumUs[p]); err != nil {
			return err
		}
		if err := s.Switch.Host.SW.RegisterWrite(RegLatCnt, p, s.latCnt[p]); err != nil {
			return err
		}
	}
	return nil
}

func (s *System) readReg(name string, index uint32) (uint64, error) {
	switch s.Mode {
	case ModeP4Auth:
		v, _, err := s.Ctrl.ReadRegister(s.name, name, index)
		return v, err
	case ModeInsecure:
		v, _, err := s.Ctrl.ReadRegisterInsecure(s.name, name, index)
		return v, err
	case ModeAPI:
		v, _, err := s.Ctrl.ReadRegisterAPI(s.name, name, index)
		return v, err
	}
	return 0, fmt.Errorf("routescout: unknown mode %d", int(s.Mode))
}

func (s *System) writeReg(name string, index uint32, v uint64) error {
	switch s.Mode {
	case ModeP4Auth:
		_, err := s.Ctrl.WriteRegister(s.name, name, index, v)
		return err
	case ModeInsecure:
		_, err := s.Ctrl.WriteRegisterInsecure(s.name, name, index, v)
		return err
	case ModeAPI:
		_, err := s.Ctrl.WriteRegisterAPI(s.name, name, index, v)
		return err
	}
	return fmt.Errorf("routescout: unknown mode %d", int(s.Mode))
}

// epoch runs one controller cycle: pull stats, recompute the split, push
// it. On a detected tamper it keeps the current split and alerts (the
// paper's Fig. 16 "with P4Auth" behaviour).
func (s *System) epoch() error {
	if err := s.flushStats(); err != nil {
		return err
	}
	var avg [2]float64
	for p := 0; p < 2; p++ {
		sum, err := s.readReg(RegLatSum, uint32(p))
		if err != nil {
			if errors.Is(err, controller.ErrTampered) {
				s.TamperedReads++
				return nil // refrain from changing the split
			}
			return err
		}
		cnt, err := s.readReg(RegLatCnt, uint32(p))
		if err != nil {
			if errors.Is(err, controller.ErrTampered) {
				s.TamperedReads++
				return nil
			}
			return err
		}
		if cnt == 0 {
			return nil // no samples yet
		}
		avg[p] = float64(sum) / float64(cnt)
	}
	// Inverse-latency proportional split: faster path gets more.
	w1 := avg[1] / (avg[0] + avg[1])
	split := uint64(w1 * 256)
	if split > 256 {
		split = 256
	}
	s.Split = split
	if err := s.writeReg(RegSplit, 0, split); err != nil {
		if errors.Is(err, controller.ErrTampered) {
			s.TamperedReads++
			return nil
		}
		return err
	}
	s.Epochs++
	return nil
}

// Run replays the trace for the duration with the controller polling each
// epoch, returning the per-path byte shares (Fig. 16's metric).
func (s *System) Run(cfg Config, pkts []trace.Packet) (share1, share2 float64, err error) {
	node := s.Net.Node(s.name)
	// Schedule relative to the current virtual time: a fresh system starts
	// at zero (historical behaviour), while a resumed system — e.g. after a
	// mid-run controller kill and recovery — replays the remaining trace
	// from now instead of racing stale absolute timestamps.
	start := s.Net.Sim.Now()
	for _, p := range pkts {
		p := p
		s.Net.Sim.At(start+time.Duration(p.AtNs), func() {
			hdr, perr := pisa.PackHeader(rsDataDef, []uint64{uint64(p.Flow), uint64(s.Net.Sim.Now()), 0})
			if perr != nil {
				return
			}
			pkt := append([]byte{0xD0}, hdr...)
			pkt = append(pkt, make([]byte, p.Size)...)
			s.node.Inject(s.Net, node, 3, pkt) // host-facing port
		})
	}
	var lastErr error
	var tick func()
	at := start + cfg.EpochLen
	tick = func() {
		if err := s.epoch(); err != nil {
			lastErr = err
			return
		}
		at += cfg.EpochLen
		s.Net.Sim.At(at, tick)
	}
	s.Net.Sim.At(at, tick)
	end := start + time.Duration(pkts[len(pkts)-1].AtNs) + 100*time.Millisecond
	s.Net.Sim.RunUntil(end)
	if lastErr != nil {
		return 0, 0, lastErr
	}
	total := float64(s.pathBytes[0] + s.pathBytes[1])
	if total == 0 {
		return 0, 0, fmt.Errorf("routescout: no traffic delivered")
	}
	return float64(s.pathBytes[0]) / total, float64(s.pathBytes[1]) / total, nil
}

// InstallLatencyInflater installs the paper's Fig. 2 adversary: a
// control-plane MitM that inflates path 1's reported latency sum in read
// responses so the controller diverts traffic to path 2.
func (s *System) InstallLatencyInflater(factor uint64) error {
	mitm := &CtrlMitM{Factor: factor, Host: s.Switch.Host}
	return mitm.Install()
}

// CtrlMitM is the RouteScout-specific control-plane adversary.
type CtrlMitM struct {
	Factor uint64
	Host   *switchos.Host
}

// Install places the interposition hook. It rewrites read responses for
// the path-1 latency sum (register index 0).
func (c *CtrlMitM) Install() error {
	info := c.Host.Info
	ri, err := info.RegisterByName(RegLatSum)
	if err != nil {
		return err
	}
	return c.Host.Install(switchos.BoundaryAgentSDK, &switchos.Hooks{
		// API-stack reads.
		OnRegResult: func(op *switchos.RegOp, value *uint64) {
			if op.ID == ri.ID && op.Index == 0 {
				*value *= c.Factor
			}
		},
		// PacketIn (DP-Reg-RW / P4Auth) reads.
		OnPacketIn: func(data []byte) []byte {
			m, err := core.DecodeMessage(data)
			if err != nil || m.Reg == nil || m.HdrType != core.HdrRegister {
				return data
			}
			if m.Reg.RegID == ri.ID && m.Reg.Index == 0 && m.MsgType == core.MsgAck {
				m.Reg.Value *= c.Factor
				out, eerr := m.Encode()
				if eerr != nil {
					return data
				}
				return out
			}
			return data
		},
	})
}

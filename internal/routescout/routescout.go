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

	"p4auth/internal/app"
	"p4auth/internal/controller"
	"p4auth/internal/core"
	"p4auth/internal/deploy"
	"p4auth/internal/netsim"
	"p4auth/internal/pisa"
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

// System is a running RouteScout deployment: one edge switch, two paths,
// a sink, and the controller loop.
type System struct {
	*app.App
	Net  *netsim.Network
	node *deploy.SwitchNode

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
	// Mode is one of app's three modes; any other value fails New.
	Mode app.Mode
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

// The paths and polling of every deployment mirror Fig. 2: path 1 is
// the better path.
const (
	path1Delay = 2 * time.Millisecond
	path2Delay = 6 * time.Millisecond
	// epochLen is the controller polling period.
	epochLen = 50 * time.Millisecond
	// initialSplit is the starting share for path 1 (0..256).
	initialSplit = 128
)

// DefaultConfig returns the configuration of one deployment in mode.
func DefaultConfig(mode app.Mode) Config {
	return Config{Mode: mode}
}

func dataDef() *pisa.HeaderDef {
	return &pisa.HeaderDef{Name: HdrData, Fields: []pisa.FieldDef{
		{Name: "flow", Width: 32},
		{Name: "ts", Width: 48},
		{Name: "path", Width: 8},
	}}
}

// buildProgram creates the RouteScout edge data plane: split-based path
// selection plus the stat registers.
func buildProgram() *pisa.Program {
	return &pisa.Program{
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
}

// New assembles the system.
func New(c Config) (*System, error) {
	a, err := app.New(buildProgram(), app.Spec{
		Name: c.name(), Mode: c.Mode, Profile: pisa.TofinoProfile(), Ports: 4,
		Exposed: []string{RegSplit, RegLatSum, RegLatCnt}, Seed: 0x2005C0 + c.Seed,
		Latency: 100 * time.Microsecond,
	})
	if err != nil {
		return nil, err
	}
	if err := a.Host.SW.RegisterWrite(RegSplit, 0, initialSplit); err != nil {
		return nil, err
	}
	s := &System{App: a, Net: netsim.NewNetwork(), Split: initialSplit}
	s.node = &deploy.SwitchNode{Host: a.Host}
	s.Net.AddNode(c.name(), s.node)
	s.Net.AddNode("sink", netsim.HandlerFunc(func(net *netsim.Network, _ *netsim.Node, _ int, data []byte) {
		s.onDeliver(net, data)
	}))
	s.Net.MustConnect(c.name(), 1, "sink", 1, path1Delay, 0)
	s.Net.MustConnect(c.name(), 2, "sink", 2, path2Delay, 0)
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
		if err := s.Host.SW.RegisterWrite(RegLatSum, p, s.latSumUs[p]); err != nil {
			return err
		}
		if err := s.Host.SW.RegisterWrite(RegLatCnt, p, s.latCnt[p]); err != nil {
			return err
		}
	}
	return nil
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
		sum, err := s.Read(RegLatSum, uint32(p))
		if err != nil {
			if errors.Is(err, controller.ErrTampered) {
				s.TamperedReads++
				return nil // refrain from changing the split
			}
			return err
		}
		cnt, err := s.Read(RegLatCnt, uint32(p))
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
	if err := s.Write(RegSplit, 0, split); err != nil {
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
	node := s.Net.Node(s.Name)
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
	at := start + epochLen
	tick = func() {
		if err := s.epoch(); err != nil {
			lastErr = err
			return
		}
		at += epochLen
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
// control-plane MitM that inflates path 1's reported latency sum
// (register index 0) in read responses, over the API stack and in
// PacketIns alike, so the controller diverts traffic to path 2.
func (s *System) InstallLatencyInflater(factor uint64) error {
	return s.Rewrite(core.MsgAck, []string{RegLatSum}, func(index uint32, v uint64) (uint64, bool) {
		return v * factor, index == 0
	})
}

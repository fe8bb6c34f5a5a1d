// Package flowradar is a full-pipeline miniature of FlowRadar (Li et al.,
// NSDI 2016), the encoded-flowset measurement system of the paper's
// Table I. Each packet updates an invertible-Bloom-lookup-style counting
// table held in registers — per cell: a flow count, an XOR fold of the
// flow identifiers, and a packet count — plus a test-and-set flow filter
// that makes flow-level fields update only on a flow's first packet. The
// controller periodically exports the cells over C-DP and decodes the full
// per-flow packet counts by peeling; an adversary rewriting the export
// "poisons the loss analysis" (Table I), and P4Auth detects it.
package flowradar

import (
	"errors"
	"fmt"

	"p4auth/internal/app"
	"p4auth/internal/controller"
	"p4auth/internal/core"
	"p4auth/internal/crypto"
	"p4auth/internal/pisa"
)

// PTypeFlow tags measured packets.
const PTypeFlow = 0xFA

// Register names.
const (
	RegFlowXOR = "fr_flowxor"
	RegFlowCnt = "fr_flowcnt"
	RegPktCnt  = "fr_pktcnt"
)

const filterName = "fr_seen"

// Params configures the encoded flowset.
type Params struct {
	// Cells is the counting-table size (power of two).
	Cells  int
	Secure bool
	// Name identifies the switch at its controller; empty means the
	// historical "radar". Fleet deployments run one instance per pod and
	// need distinct names within a shared controller namespace.
	Name string
	// Seed perturbs the switch and controller PRNGs; zero keeps the
	// historical seeds, so existing runs are unchanged.
	Seed uint64
}

// name returns the effective switch name.
func (p Params) name() string {
	if p.Name == "" {
		return "radar"
	}
	return p.Name
}

const (
	// cellHashes is how many cells each flow maps to.
	cellHashes = 3
	// filterHashes and filterBits size the test-and-set flow filter;
	// filterBits is a power of two.
	filterHashes = 3
	filterBits   = 8192
)

// DefaultParams decodes a few hundred flows comfortably.
func DefaultParams(secure bool) Params {
	return Params{Cells: 1024, Secure: secure}
}

// System is a running FlowRadar deployment.
type System struct {
	*app.App
	Params Params

	prf crypto.KeyedCRC32
	// TamperedReads counts rejected export reads.
	TamperedReads int
}

var flowDef = &pisa.HeaderDef{Name: "frf", Fields: []pisa.FieldDef{
	{Name: "flow", Width: 32},
}}

func cellSeed(h int) uint64   { return 0xF10D_0000 + uint64(h)*0x9E37 }
func filterSeed(h int) uint64 { return 0x5EEA_0000 + uint64(h)*0x61C9 }

func buildProgram(p Params) (*pisa.Program, error) {
	if p.Cells&(p.Cells-1) != 0 {
		return nil, fmt.Errorf("flowradar: cells must be a power of two")
	}
	prog := &pisa.Program{
		Name:    "flowradar",
		Headers: []*pisa.HeaderDef{core.PTypeHeader(), flowDef},
		Parser: []pisa.ParserState{
			{Name: pisa.ParserStart, Extract: core.HdrPType,
				Select:      pisa.F(core.HdrPType, "v"),
				Transitions: map[uint64]string{PTypeFlow: "fr_flow"}},
			{Name: "fr_flow", Extract: "frf"},
		},
		DeparseOrder: []string{core.HdrPType, "frf"},
	}
	m := func(f string) pisa.FieldRef { return pisa.F(pisa.MetaHeader, f) }
	flow := pisa.R(pisa.F("frf", "flow"))

	// Filter rows (test-and-set via RMW) and counting-table registers.
	var meta []pisa.FieldDef
	for h := 0; h < filterHashes; h++ {
		prog.Registers = append(prog.Registers, &pisa.RegisterDef{
			Name: fmt.Sprintf("%s_h%d", filterName, h), Width: 1, Entries: filterBits,
		})
		meta = append(meta,
			pisa.FieldDef{Name: fmt.Sprintf("fr_fidx%d", h), Width: 32},
			pisa.FieldDef{Name: fmt.Sprintf("fr_fold%d", h), Width: 8},
		)
	}
	for _, reg := range []struct {
		name  string
		width int
	}{{RegFlowXOR, 32}, {RegFlowCnt, 32}, {RegPktCnt, 32}} {
		prog.Registers = append(prog.Registers, &pisa.RegisterDef{
			Name: reg.name, Width: reg.width, Entries: p.Cells,
		})
	}
	for h := 0; h < cellHashes; h++ {
		meta = append(meta, pisa.FieldDef{Name: fmt.Sprintf("fr_cidx%d", h), Width: 32})
	}
	meta = append(meta, pisa.FieldDef{Name: "fr_new", Width: 8}, pisa.FieldDef{Name: "fr_scr", Width: 32})
	prog.Metadata = append(prog.Metadata, meta...)

	var ops []pisa.Op
	// Flow filter: test-and-set all rows in single accesses; the flow is
	// new iff any row bit was previously clear.
	ops = append(ops, pisa.Set(m("fr_new"), pisa.C(0)))
	for h := 0; h < filterHashes; h++ {
		idx := m(fmt.Sprintf("fr_fidx%d", h))
		ops = append(ops,
			pisa.KeyedHash(idx, pisa.HashCRC32, pisa.C(filterSeed(h)), flow),
			pisa.And(idx, pisa.R(idx), pisa.C(uint64(filterBits-1))),
			pisa.RegRMW(m(fmt.Sprintf("fr_fold%d", h)), fmt.Sprintf("%s_h%d", filterName, h),
				pisa.R(idx), pisa.RMWWrite, pisa.C(1)),
			pisa.If(pisa.Eq(pisa.R(m(fmt.Sprintf("fr_fold%d", h))), pisa.C(0)), []pisa.Op{
				pisa.Set(m("fr_new"), pisa.C(1)),
			}),
		)
	}
	// Counting table: cell indices, then per-cell updates. The paper's
	// BMv2-style layout reads/writes each register once.
	for h := 0; h < cellHashes; h++ {
		idx := m(fmt.Sprintf("fr_cidx%d", h))
		ops = append(ops,
			pisa.KeyedHash(idx, pisa.HashCRC32, pisa.C(cellSeed(h)), flow),
			pisa.And(idx, pisa.R(idx), pisa.C(uint64(p.Cells-1))),
		)
	}
	// Flow-level fields update only for new flows. One register per cell
	// array would be touched cellHashes times per packet, so each hash
	// position gets its own bank on hardware; the BMv2 target this runs on
	// (as in the paper) permits the shared layout.
	for h := 0; h < cellHashes; h++ {
		idx := pisa.R(m(fmt.Sprintf("fr_cidx%d", h)))
		ops = append(ops,
			pisa.If(pisa.Eq(pisa.R(m("fr_new")), pisa.C(1)), []pisa.Op{
				pisa.RegRMW(m("fr_scr"), RegFlowXOR, idx, pisa.RMWXor, flow),
				pisa.RegRMW(m("fr_scr"), RegFlowCnt, idx, pisa.RMWAdd, pisa.C(1)),
			}),
			pisa.RegRMW(m("fr_scr"), RegPktCnt, idx, pisa.RMWAdd, pisa.C(1)),
		)
	}
	ops = append(ops, pisa.Forward(pisa.C(2)))
	prog.Control = []pisa.Op{pisa.If(pisa.Valid("frf"), ops)}
	return prog, nil
}

// New deploys the measurement switch (BMv2 profile: the shared cell
// layout needs multiple accesses per register array).
func New(p Params) (*System, error) {
	prog, err := buildProgram(p)
	if err != nil {
		return nil, err
	}
	a, err := app.New(prog, app.Spec{
		Name: p.name(), Mode: app.ModeOf(p.Secure), Profile: pisa.BMv2Profile(), Ports: 4,
		Exposed: []string{RegFlowXOR, RegFlowCnt, RegPktCnt}, Seed: 0xF1A + p.Seed,
	})
	if err != nil {
		return nil, err
	}
	s := &System{App: a, Params: p, prf: crypto.NewKeyedCRC32()}
	if p.Secure {
		if _, err := a.Ctrl.LocalKeyInit(p.name()); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Packet records one packet of a flow.
func (s *System) Packet(flow uint32) error {
	body, err := pisa.PackHeader(flowDef, []uint64{uint64(flow)})
	if err != nil {
		return err
	}
	pkt := append([]byte{PTypeFlow}, body...)
	_, err = s.Host.NetworkPacket(1, pkt)
	return err
}

func (s *System) cellIndexes(flow uint32) []int {
	out := make([]int, cellHashes)
	b := []byte{byte(flow >> 24), byte(flow >> 16), byte(flow >> 8), byte(flow)}
	for h := 0; h < cellHashes; h++ {
		out[h] = int(s.prf.Sum32(cellSeed(h), b)) & (s.Params.Cells - 1)
	}
	return out
}

type cell struct {
	flowXOR uint32
	flowCnt uint32
	pktCnt  uint32
}

// export reads all cells over C-DP (the attacked report path). On tamper
// detection it returns ErrTampered wrapped.
func (s *System) export() ([]cell, error) {
	cells := make([]cell, s.Params.Cells)
	for i := 0; i < s.Params.Cells; i++ {
		fx, err := s.Read(RegFlowXOR, uint32(i))
		if err != nil {
			return nil, err
		}
		fc, err := s.Read(RegFlowCnt, uint32(i))
		if err != nil {
			return nil, err
		}
		pc, err := s.Read(RegPktCnt, uint32(i))
		if err != nil {
			return nil, err
		}
		cells[i] = cell{uint32(fx), uint32(fc), uint32(pc)}
	}
	return cells, nil
}

// exportDriver reads cells through the quarantined driver path.
func (s *System) exportDriver() ([]cell, error) {
	cells := make([]cell, s.Params.Cells)
	for i := 0; i < s.Params.Cells; i++ {
		fx, err := s.Host.SW.RegisterRead(RegFlowXOR, i)
		if err != nil {
			return nil, err
		}
		fc, err := s.Host.SW.RegisterRead(RegFlowCnt, i)
		if err != nil {
			return nil, err
		}
		pc, err := s.Host.SW.RegisterRead(RegPktCnt, i)
		if err != nil {
			return nil, err
		}
		cells[i] = cell{uint32(fx), uint32(fc), uint32(pc)}
	}
	return cells, nil
}

// Decode exports the encoded flowset and peels it into per-flow packet
// counts (FlowRadar SingleDecode). On tamper detection with P4Auth it
// falls back to the quarantined driver export.
func (s *System) Decode() (map[uint32]uint32, error) {
	cells, err := s.export()
	if err != nil {
		if !errors.Is(err, controller.ErrTampered) {
			return nil, err
		}
		s.TamperedReads++
		if cells, err = s.exportDriver(); err != nil {
			return nil, err
		}
	}
	return s.peel(cells)
}

func (s *System) peel(cells []cell) (map[uint32]uint32, error) {
	flows := make(map[uint32]uint32)
	for progress := true; progress; {
		progress = false
		for i := range cells {
			if cells[i].flowCnt != 1 {
				continue
			}
			flow := cells[i].flowXOR
			pkts := cells[i].pktCnt
			// A pure cell: its packet count belongs entirely to this flow.
			flows[flow] = pkts
			for _, j := range s.cellIndexes(flow) {
				cells[j].flowXOR ^= flow
				cells[j].flowCnt--
				cells[j].pktCnt -= pkts
			}
			progress = true
		}
	}
	for i := range cells {
		if cells[i].flowCnt != 0 {
			return flows, fmt.Errorf("flowradar: decode incomplete (%d residual cells) — table overloaded or export corrupted", residual(cells))
		}
	}
	return flows, nil
}

func residual(cells []cell) int {
	n := 0
	for i := range cells {
		if cells[i].flowCnt != 0 {
			n++
		}
	}
	return n
}

// InstallExportDeflater installs the paper's adversary: exported packet
// counts are scaled down, hiding loss from the downstream analysis.
func (s *System) InstallExportDeflater() error {
	return s.Rewrite(core.MsgAck, []string{RegPktCnt}, func(_ uint32, v uint64) (uint64, bool) {
		return v / 2, true
	})
}

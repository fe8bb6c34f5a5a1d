// Heavy-hitter detection is the paper's Table I "sketch" row: a
// count-min sketch in registers counts every flow, the controller pulls
// per-flow estimates over C-DP and promotes flows past a threshold onto
// an in-switch watchlist register. The adversary of the row deflates the
// reported counters so elephants never reach the watchlist; with P4Auth
// the tampered reads are rejected and the watchlist keeps its last good
// contents.
package sketch

import (
	"errors"
	"fmt"

	"p4auth/internal/app"
	"p4auth/internal/controller"
	"p4auth/internal/core"
	"p4auth/internal/pisa"
)

// PTypeHH tags counted packets.
const PTypeHH = 0x44

// RegWatch is the heavy-hitter watchlist (one flow ID per slot).
const RegWatch = "hh_watch"

// HHParams configures the detector.
type HHParams struct {
	CMSRows int
	Secure  bool
	// Name identifies the switch at its controller; empty means "hh".
	Name string
	// Seed perturbs the switch and controller PRNGs; zero keeps the
	// defaults deterministic per instance name.
	Seed uint64
}

// The size of a small demonstration detector: hhCMSCols columns per
// sketch row, and hhWatchSlots watchlist entries.
const (
	hhCMSCols    = 512
	hhWatchSlots = 8
)

// DefaultHHParams sizes a small demonstration detector.
func DefaultHHParams(secure bool) HHParams {
	return HHParams{CMSRows: 2, Secure: secure}
}

func (p HHParams) name() string {
	if p.Name == "" {
		return "hh"
	}
	return p.Name
}

// HHSystem is a running heavy-hitter deployment.
type HHSystem struct {
	*app.App
	Params HHParams
	CMS    *CMS
	Mirror *Mirror

	// watch mirrors the installed watchlist (slot -> flow).
	watch []uint32
	// SkippedEpochs counts controller epochs abandoned due to tampering.
	SkippedEpochs int
	// Epochs counts completed promotion epochs.
	Epochs int
}

var hhDef = &pisa.HeaderDef{Name: "hhp", Fields: []pisa.FieldDef{
	{Name: "flow", Width: 32},
}}

func buildHHProgram(p HHParams) (*pisa.Program, *CMS, error) {
	cms, err := NewCMS("hh_cms", p.CMSRows, hhCMSCols)
	if err != nil {
		return nil, nil, err
	}
	prog := &pisa.Program{
		Name:    "heavyhitter",
		Headers: []*pisa.HeaderDef{core.PTypeHeader(), hhDef},
		Parser: []pisa.ParserState{
			{Name: pisa.ParserStart, Extract: core.HdrPType,
				Select:      pisa.F(core.HdrPType, "v"),
				Transitions: map[uint64]string{PTypeHH: "hh_pkt"}},
			{Name: "hh_pkt", Extract: "hhp"},
		},
		DeparseOrder: []string{core.HdrPType, "hhp"},
		Registers: []*pisa.RegisterDef{
			{Name: RegWatch, Width: 32, Entries: hhWatchSlots},
		},
	}
	cms.AddToProgram(prog)
	flow := pisa.R(pisa.F("hhp", "flow"))
	ops := append(append([]pisa.Op{}, cms.UpdateOps(flow)...), pisa.Forward(pisa.C(2)))
	prog.Control = []pisa.Op{pisa.If(pisa.Valid("hhp"), ops)}
	return prog, cms, nil
}

// NewHH deploys the detector switch and its controller.
func NewHH(p HHParams) (*HHSystem, error) {
	prog, cms, err := buildHHProgram(p)
	if err != nil {
		return nil, err
	}
	a, err := app.New(prog, app.Spec{
		Name: p.name(), Mode: app.ModeOf(p.Secure), Profile: pisa.TofinoProfile(), Ports: 4,
		Exposed: append(cms.RegisterNames(), RegWatch), Seed: 0x440A + p.Seed,
	})
	if err != nil {
		return nil, err
	}
	s := &HHSystem{
		App:    a,
		Params: p,
		CMS:    cms,
		Mirror: NewMirror(cms),
		watch:  make([]uint32, hhWatchSlots),
	}
	if p.Secure {
		if _, err := a.Ctrl.LocalKeyInit(p.name()); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Packet counts one packet of a flow.
func (s *HHSystem) Packet(flow uint32) error {
	body, err := pisa.PackHeader(hhDef, []uint64{uint64(flow)})
	if err != nil {
		return err
	}
	pkt := append([]byte{PTypeHH}, body...)
	_, err = s.Host.NetworkPacket(1, pkt)
	return err
}

// readEstimate fetches a flow's sketch estimate over C-DP — the report
// path the Table I adversary deflates.
func (s *HHSystem) readEstimate(flow uint32) (uint64, error) {
	min := ^uint64(0)
	for r, idx := range s.Mirror.Indexes(flow) {
		v, err := s.Read(fmt.Sprintf("%s_row%d", s.CMS.Name, r), uint32(idx))
		if err != nil {
			return 0, err
		}
		if v < min {
			min = v
		}
	}
	return min, nil
}

// PromoteEpoch runs one controller cycle over the candidate flows:
// estimates above threshold are installed onto the watchlist (up to its
// capacity, heaviest first by scan order). On tamper detection the
// watchlist keeps its previous contents and the epoch counts as skipped.
func (s *HHSystem) PromoteEpoch(candidates []uint32, threshold uint64) error {
	var heavy []uint32
	for _, f := range candidates {
		est, err := s.readEstimate(f)
		if err != nil {
			if errors.Is(err, controller.ErrTampered) {
				s.SkippedEpochs++
				return nil
			}
			return err
		}
		if est >= threshold {
			heavy = append(heavy, f)
		}
	}
	for i := 0; i < hhWatchSlots; i++ {
		var f uint32
		if i < len(heavy) {
			f = heavy[i]
		}
		if err := s.Host.SW.RegisterWrite(RegWatch, i, uint64(f)); err != nil {
			return err
		}
		s.watch[i] = f
	}
	s.Epochs++
	return nil
}

// Watchlist returns the flows currently on the in-switch watchlist.
func (s *HHSystem) Watchlist() ([]uint32, error) {
	out := make([]uint32, 0, hhWatchSlots)
	for i := 0; i < hhWatchSlots; i++ {
		v, err := s.Host.SW.RegisterRead(RegWatch, i)
		if err != nil {
			return nil, err
		}
		if v != 0 {
			out = append(out, uint32(v))
		}
	}
	return out, nil
}

// InstallCountDeflater installs the Table I adversary: reported sketch
// counters above floor read as zero, so elephants look like mice.
func (s *HHSystem) InstallCountDeflater(floor uint64) error {
	return s.Rewrite(core.MsgAck, s.CMS.RegisterNames(), func(_ uint32, v uint64) (uint64, bool) {
		return 0, v > floor
	})
}

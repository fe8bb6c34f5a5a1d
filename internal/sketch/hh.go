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

	"p4auth/internal/controller"
	"p4auth/internal/core"
	"p4auth/internal/crypto"
	"p4auth/internal/pisa"
	"p4auth/internal/switchos"
)

// PTypeHH tags counted packets.
const PTypeHH = 0x44

// RegWatch is the heavy-hitter watchlist (one flow ID per slot).
const RegWatch = "hh_watch"

// HHParams configures the detector.
type HHParams struct {
	CMSRows int
	CMSCols int
	// WatchSlots is the watchlist capacity.
	WatchSlots int
	Secure     bool
	// Name identifies the switch at its controller; empty means "hh".
	Name string
	// Seed perturbs the switch and controller PRNGs; zero keeps the
	// defaults deterministic per instance name.
	Seed uint64
}

// DefaultHHParams sizes a small demonstration detector.
func DefaultHHParams(secure bool) HHParams {
	return HHParams{CMSRows: 2, CMSCols: 512, WatchSlots: 8, Secure: secure}
}

func (p HHParams) name() string {
	if p.Name == "" {
		return "hh"
	}
	return p.Name
}

// HHSystem is a running heavy-hitter deployment.
type HHSystem struct {
	Params HHParams
	Host   *switchos.Host
	Ctrl   *controller.Controller
	// Cfg is the P4Auth core configuration the switch booted with;
	// exported so a recovery path can re-Register the switch at a fresh
	// controller after a controller kill.
	Cfg    core.Config
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

func buildHHProgram(p HHParams) (*pisa.Program, *CMS, core.Config, error) {
	cms, err := NewCMS("hh_cms", p.CMSRows, p.CMSCols)
	if err != nil {
		return nil, nil, core.Config{}, err
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
			{Name: RegWatch, Width: 32, Entries: p.WatchSlots},
		},
	}
	cms.AddToProgram(prog)
	flow := pisa.R(pisa.F("hhp", "flow"))
	ops := append(append([]pisa.Op{}, cms.UpdateOps(flow)...), pisa.Forward(pisa.C(2)))
	prog.Control = []pisa.Op{pisa.If(pisa.Valid("hhp"), ops)}

	cfg := core.DefaultConfig(4, core.DigestCRC32)
	cfg.Insecure = !p.Secure
	exposed := append(cms.RegisterNames(), RegWatch)
	if err := core.AddToProgram(prog, cfg, core.Integration{Exposed: exposed}); err != nil {
		return nil, nil, cfg, err
	}
	return prog, cms, cfg, nil
}

// NewHH deploys the detector switch and its controller.
func NewHH(p HHParams) (*HHSystem, error) {
	prog, cms, cfg, err := buildHHProgram(p)
	if err != nil {
		return nil, err
	}
	sw, err := pisa.NewSwitch(prog, pisa.TofinoProfile(), pisa.WithRandom(crypto.NewSeededRand(0x440A+p.Seed)))
	if err != nil {
		return nil, err
	}
	if err := core.Boot(sw, cfg); err != nil {
		return nil, err
	}
	host := switchos.NewHost(p.name(), sw, switchos.DefaultCosts())
	ctrl := controller.New(crypto.NewSeededRand(0x440B + p.Seed))
	if err := ctrl.Register(p.name(), host, cfg, 0); err != nil {
		return nil, err
	}
	s := &HHSystem{
		Params: p,
		Host:   host,
		Ctrl:   ctrl,
		Cfg:    cfg,
		CMS:    cms,
		Mirror: NewMirror(cms),
		watch:  make([]uint32, p.WatchSlots),
	}
	if p.Secure {
		if _, err := ctrl.LocalKeyInit(p.name()); err != nil {
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
		name := fmt.Sprintf("%s_row%d", s.CMS.Name, r)
		var v uint64
		var err error
		if s.Params.Secure {
			v, _, err = s.Ctrl.ReadRegister(s.Params.name(), name, uint32(idx))
		} else {
			v, _, err = s.Ctrl.ReadRegisterInsecure(s.Params.name(), name, uint32(idx))
		}
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
	for i := 0; i < s.Params.WatchSlots; i++ {
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
	out := make([]uint32, 0, s.Params.WatchSlots)
	for i := 0; i < s.Params.WatchSlots; i++ {
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
	rowIDs := make(map[uint32]bool, s.CMS.Rows)
	for _, name := range s.CMS.RegisterNames() {
		ri, err := s.Host.Info.RegisterByName(name)
		if err != nil {
			return err
		}
		rowIDs[ri.ID] = true
	}
	return s.Host.Install(switchos.BoundaryAgentSDK, &switchos.Hooks{
		OnPacketIn: func(data []byte) []byte {
			m, err := core.DecodeMessage(data)
			if err != nil || m.Reg == nil || m.MsgType != core.MsgAck {
				return data
			}
			if rowIDs[m.Reg.RegID] && m.Reg.Value > floor {
				m.Reg.Value = 0
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

// Package netcache is a full-pipeline miniature of NetCache (Jin et al.,
// SOSP 2017), the in-network key-value cache of the paper's Table I. The
// switch serves hot keys from an exact-match cache table and counts missed
// keys in a count-min sketch held in registers; the controller periodically
// reads the sketch over C-DP (authenticated register reads of the row
// counters), promotes the hottest keys into the cache, and clears the
// statistics — exactly the update/report loop the paper's adversary
// targets. A compromised switch OS that deflates the reported counters
// keeps hot keys out of the cache, "inflating the time to retrieve the hot
// key value"; P4Auth detects the tampering and the controller retains the
// previous cache contents.
package netcache

import (
	"errors"
	"fmt"
	"sort"

	"p4auth/internal/app"
	"p4auth/internal/controller"
	"p4auth/internal/core"
	"p4auth/internal/pisa"
	"p4auth/internal/sketch"
)

// Packet-type tag for query packets.
const PTypeQuery = 0xC0

// Ports: queries arrive on 1 and are answered there on a hit; misses go to
// the storage server on 2.
const (
	ClientPort = 1
	ServerPort = 2
)

// Register and table names.
const (
	TableCache  = "nc_cache"
	RegHits     = "nc_hits"
	RegMisses   = "nc_misses"
	RegSlotHits = "nc_slot_hits"
	ActionHit   = "nc_hit"
)

// Params configures the cache.
type Params struct {
	CMSRows int
	Secure  bool
	// Name identifies the switch at its controller; empty means the
	// historical "cache". Fleet deployments run one instance per pod and
	// need distinct names within a shared controller namespace.
	Name string
	// Seed perturbs the switch and controller PRNGs; zero keeps the
	// historical seeds, so existing runs are unchanged.
	Seed uint64
}

// name returns the effective switch name.
func (p Params) name() string {
	if p.Name == "" {
		return "cache"
	}
	return p.Name
}

// The size of a small demonstration cache: cacheSlots cached keys, and
// cmsCols columns per row of the popularity sketch.
const (
	cacheSlots = 8
	cmsCols    = 512
)

// DefaultParams sizes a small demonstration cache.
func DefaultParams(secure bool) Params {
	return Params{CMSRows: 2, Secure: secure}
}

// System is a running NetCache deployment.
type System struct {
	*app.App
	Params Params
	CMS    *sketch.CMS
	Mirror *sketch.Mirror

	// cached maps a cached key to its hit-counter slot.
	cached map[uint32]int
	// SkippedEpochs counts controller epochs abandoned due to tampering.
	SkippedEpochs int
	// Epochs counts completed cache-update epochs.
	Epochs int
}

func buildProgram(p Params) (*pisa.Program, *sketch.CMS, error) {
	cms, err := sketch.NewCMS("nc_cms", p.CMSRows, cmsCols)
	if err != nil {
		return nil, nil, err
	}
	prog := &pisa.Program{
		Name: "netcache",
		Headers: []*pisa.HeaderDef{
			core.PTypeHeader(),
			{Name: "nq", Fields: []pisa.FieldDef{
				{Name: "key", Width: 32},
				{Name: "value", Width: 64},
				{Name: "hit", Width: 8},
			}},
		},
		Parser: []pisa.ParserState{
			{Name: pisa.ParserStart, Extract: core.HdrPType,
				Select:      pisa.F(core.HdrPType, "v"),
				Transitions: map[uint64]string{PTypeQuery: "nc_query"}},
			{Name: "nc_query", Extract: "nq"},
		},
		DeparseOrder: []string{core.HdrPType, "nq"},
		Metadata: []pisa.FieldDef{
			{Name: "nc_found", Width: 8},
			{Name: "nc_slot_old", Width: 32},
		},
		Actions: []*pisa.Action{
			// A hit serves the value and charges the slot's hit counter —
			// the per-key statistics NetCache keeps for cached keys (the
			// sketch only ever sees misses).
			{Name: ActionHit, Params: []pisa.FieldDef{
				{Name: "value", Width: 64},
				{Name: "slot", Width: 16},
			}, Body: []pisa.Op{
				pisa.Set(pisa.F("nq", "value"), pisa.R(pisa.F(pisa.ParamHeader, "value"))),
				pisa.Set(pisa.F(pisa.MetaHeader, "nc_found"), pisa.C(1)),
				pisa.RegRMW(pisa.F(pisa.MetaHeader, "nc_slot_old"), RegSlotHits,
					pisa.R(pisa.F(pisa.ParamHeader, "slot")), pisa.RMWAdd, pisa.C(1)),
			}},
		},
		Tables: []*pisa.Table{
			{Name: TableCache,
				Keys:    []pisa.TableKey{{Field: pisa.F("nq", "key"), Match: pisa.MatchExact}},
				Size:    cacheSlots,
				Actions: []string{ActionHit}},
		},
		Registers: []*pisa.RegisterDef{
			{Name: RegHits, Width: 64, Entries: 1},
			{Name: RegMisses, Width: 64, Entries: 1},
			{Name: RegSlotHits, Width: 32, Entries: cacheSlots},
		},
	}
	cms.AddToProgram(prog)

	key := pisa.R(pisa.F("nq", "key"))
	queryOps := []pisa.Op{
		pisa.Set(pisa.F(pisa.MetaHeader, "nc_found"), pisa.C(0)),
		pisa.Apply(TableCache),
		pisa.If(pisa.Eq(pisa.R(pisa.F(pisa.MetaHeader, "nc_found")), pisa.C(1)),
			// Hit: answer from the switch.
			[]pisa.Op{
				pisa.RegRMW(pisa.F(pisa.MetaHeader, "nc_found"), RegHits, pisa.C(0), pisa.RMWAdd, pisa.C(1)),
				pisa.Set(pisa.F("nq", "hit"), pisa.C(1)),
				pisa.Forward(pisa.C(ClientPort)),
			},
			// Miss: count the key, forward to storage.
			append(append([]pisa.Op{}, cms.UpdateOps(key)...),
				pisa.RegRMW(pisa.F(pisa.MetaHeader, "nc_found"), RegMisses, pisa.C(0), pisa.RMWAdd, pisa.C(1)),
				pisa.Forward(pisa.C(ServerPort)),
			),
		),
	}
	prog.Control = []pisa.Op{pisa.If(pisa.Valid("nq"), queryOps)}
	return prog, cms, nil
}

// New deploys the cache switch and its controller.
func New(p Params) (*System, error) {
	prog, cms, err := buildProgram(p)
	if err != nil {
		return nil, err
	}
	a, err := app.New(prog, app.Spec{
		Name: p.name(), Mode: app.ModeOf(p.Secure), Profile: pisa.TofinoProfile(), Ports: 4,
		Exposed: append(cms.RegisterNames(), RegHits, RegMisses, RegSlotHits), Seed: 0x7ACE + p.Seed,
	})
	if err != nil {
		return nil, err
	}
	s := &System{
		App:    a,
		Params: p,
		CMS:    cms,
		Mirror: sketch.NewMirror(cms),
		cached: make(map[uint32]int),
	}
	if p.Secure {
		if _, err := a.Ctrl.LocalKeyInit(p.name()); err != nil {
			return nil, err
		}
	}
	return s, nil
}

var queryDef = &pisa.HeaderDef{Name: "nq", Fields: []pisa.FieldDef{
	{Name: "key", Width: 32}, {Name: "value", Width: 64}, {Name: "hit", Width: 8},
}}

// Query sends one read for key into the pipeline; it reports whether the
// switch served it.
func (s *System) Query(key uint32) (hit bool, err error) {
	body, err := pisa.PackHeader(queryDef, []uint64{uint64(key), 0, 0})
	if err != nil {
		return false, err
	}
	pkt := append([]byte{PTypeQuery}, body...)
	res, err := s.Host.NetworkPacket(ClientPort, pkt)
	if err != nil {
		return false, err
	}
	for _, em := range res.NetOut {
		if em.Port == ClientPort {
			return true, nil
		}
	}
	return false, nil
}

// readEstimate fetches a key's sketch estimate over authenticated C-DP
// register reads (the report path the paper's adversary alters).
func (s *System) readEstimate(key uint32) (uint64, error) {
	min := ^uint64(0)
	for r, idx := range s.Mirror.Indexes(key) {
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

// UpdateEpoch runs one controller cycle over the candidate key set: read
// per-key estimates, install the hottest keys into the cache table, and
// clear the statistics. On tamper detection the cache is left untouched
// (and the epoch counted as skipped).
func (s *System) UpdateEpoch(candidates []uint32) error {
	type scored struct {
		key uint32
		est uint64
	}
	scores := make([]scored, 0, len(candidates))
	for _, k := range candidates {
		var est uint64
		var err error
		if slot, ok := s.cached[k]; ok {
			// Cached keys never miss; their demand lives in the per-slot
			// hit counters (read over the same authenticated C-DP path).
			est, err = s.Read(RegSlotHits, uint32(slot))
		} else {
			est, err = s.readEstimate(k)
		}
		if err != nil {
			if errors.Is(err, controller.ErrTampered) {
				s.SkippedEpochs++
				return nil
			}
			return err
		}
		scores = append(scores, scored{k, est})
	}
	sort.Slice(scores, func(i, j int) bool { return scores[i].est > scores[j].est })

	// Rebuild the cache with the top keys (values come from the storage
	// tier; modeled as key-derived).
	if err := s.Host.SW.ClearTable(TableCache); err != nil {
		return err
	}
	s.cached = make(map[uint32]int)
	for i := 0; i < len(scores) && i < cacheSlots; i++ {
		k := scores[i].key
		if err := s.Host.SW.InsertEntry(TableCache, pisa.Entry{
			Key:    []pisa.KeyMatch{pisa.EKey(uint64(k))},
			Action: ActionHit,
			Params: []uint64{uint64(k)*2 + 1, uint64(i)},
		}); err != nil {
			return err
		}
		s.cached[k] = i
	}
	// Reset the per-slot hit counters for the new window.
	for i := 0; i < cacheSlots; i++ {
		if err := s.Host.SW.RegisterWrite(RegSlotHits, i, 0); err != nil {
			return err
		}
	}
	// Clear statistics for the next window (driver path, like the paper's
	// periodic clears — the report path above is the attacked one).
	if err := s.Mirror.Clear(s.Host.SW); err != nil {
		return err
	}
	s.Epochs++
	return nil
}

// HitRate reads the hit/miss counters.
func (s *System) HitRate() (float64, error) {
	h, err := s.Host.SW.RegisterRead(RegHits, 0)
	if err != nil {
		return 0, err
	}
	m, err := s.Host.SW.RegisterRead(RegMisses, 0)
	if err != nil {
		return 0, err
	}
	if h+m == 0 {
		return 0, nil
	}
	return float64(h) / float64(h+m), nil
}

// ResetCounters zeroes the hit/miss counters (between measurement phases).
func (s *System) ResetCounters() error {
	if err := s.Host.SW.RegisterWrite(RegHits, 0, 0); err != nil {
		return err
	}
	return s.Host.SW.RegisterWrite(RegMisses, 0, 0)
}

// InstallStatDeflater installs the paper's adversary: a switch-OS hook
// that deflates reported sketch counters above `floor` so hot keys look
// cold to the controller.
func (s *System) InstallStatDeflater(floor uint64) error {
	return s.Rewrite(core.MsgAck, append(s.CMS.RegisterNames(), RegSlotHits), func(_ uint32, v uint64) (uint64, bool) {
		return 0, v > floor // hot keys read as never-queried
	})
}

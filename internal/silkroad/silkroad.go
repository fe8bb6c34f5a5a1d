// Package silkroad is a full-pipeline miniature of SilkRoad (Miao et al.,
// SIGCOMM 2017), the in-switch stateful layer-4 load balancer of the
// paper's Table I. During a DIP-pool update, connections that arrive in
// the transition window are recorded in a transit bloom filter held in
// registers and pinned to the OLD pool version for their lifetime; once
// the pending connections have been migrated, the controller clears the
// filter and ends the migration over C-DP — the exact update message the
// paper's adversary suppresses so that "the data plane uses the wrong VIP
// during LB". With P4Auth the tampered write is detected and the operator
// completes the migration through a quarantined path.
package silkroad

import (
	"errors"

	"p4auth/internal/controller"
	"p4auth/internal/core"
	"p4auth/internal/crypto"
	"p4auth/internal/pisa"
	"p4auth/internal/sketch"
	"p4auth/internal/switchos"
)

// PTypeConn tags connection packets.
const PTypeConn = 0xE0

// Ports.
const (
	ClientPort = 1
	PoolPort   = 2
)

// Register names.
const (
	RegMigrating = "sr_migrating" // 1 while a pool update is in flight
	RegPoolVer   = "sr_pool_ver"  // current DIP pool version
	RegOldServed = "sr_old_served"
	RegNewServed = "sr_new_served"
)

// Params configures the system.
type Params struct {
	BloomHashes int
	BloomBits   int
	Secure      bool
	// Name identifies the switch at its controller; empty means the
	// historical "lb". Fleet deployments run one instance per pod and
	// need distinct names within a shared controller namespace.
	Name string
	// Seed perturbs the switch and controller PRNGs; zero keeps the
	// historical seeds, so existing runs are unchanged.
	Seed uint64
}

// name returns the effective switch name.
func (p Params) name() string {
	if p.Name == "" {
		return "lb"
	}
	return p.Name
}

// DefaultParams sizes a demonstration balancer.
func DefaultParams(secure bool) Params {
	return Params{BloomHashes: 3, BloomBits: 2048, Secure: secure}
}

// System is a running SilkRoad deployment.
type System struct {
	Params Params
	Host   *switchos.Host
	Ctrl   *controller.Controller
	// Cfg is the P4Auth core configuration the switch booted with;
	// exported so a recovery path can re-Register the switch at a fresh
	// controller after a controller kill.
	Cfg    core.Config
	Bloom  *sketch.Bloom
	Mirror *sketch.BloomMirror

	// TamperedWrites counts C-DP writes the controller saw rejected.
	TamperedWrites int
}

var connDef = &pisa.HeaderDef{Name: "conn", Fields: []pisa.FieldDef{
	{Name: "id", Width: 32},
	{Name: "syn", Width: 8},
	{Name: "dip_pool", Width: 8}, // stamped by the switch: pool that served it
}}

func buildProgram(p Params) (*pisa.Program, *sketch.Bloom, core.Config, error) {
	bloom, err := sketch.NewBloom("sr_transit", p.BloomHashes, p.BloomBits)
	if err != nil {
		return nil, nil, core.Config{}, err
	}
	prog := &pisa.Program{
		Name:    "silkroad",
		Headers: []*pisa.HeaderDef{core.PTypeHeader(), connDef},
		Parser: []pisa.ParserState{
			{Name: pisa.ParserStart, Extract: core.HdrPType,
				Select:      pisa.F(core.HdrPType, "v"),
				Transitions: map[uint64]string{PTypeConn: "sr_conn"}},
			{Name: "sr_conn", Extract: "conn"},
		},
		DeparseOrder: []string{core.HdrPType, "conn"},
		Metadata: []pisa.FieldDef{
			{Name: "sr_mig", Width: 8},
			{Name: "sr_ver", Width: 8},
			{Name: "sr_pin_old", Width: 8},
		},
		Registers: []*pisa.RegisterDef{
			{Name: RegMigrating, Width: 8, Entries: 1},
			{Name: RegPoolVer, Width: 8, Entries: 1},
			{Name: RegOldServed, Width: 64, Entries: 1},
			{Name: RegNewServed, Width: 64, Entries: 1},
		},
	}
	bloom.AddToProgram(prog)

	key := pisa.R(pisa.F("conn", "id"))
	m := func(f string) pisa.FieldRef { return pisa.F(pisa.MetaHeader, f) }
	connOps := []pisa.Op{
		pisa.RegRead(m("sr_mig"), RegMigrating, pisa.C(0)),
		pisa.RegRead(m("sr_ver"), RegPoolVer, pisa.C(0)),
		pisa.Set(m("sr_pin_old"), pisa.C(0)),
		// New connections arriving mid-migration join the transit set.
		pisa.If(pisa.Eq(pisa.R(pisa.F("conn", "syn")), pisa.C(1)),
			[]pisa.Op{
				pisa.If(pisa.Eq(pisa.R(m("sr_mig")), pisa.C(1)),
					append(bloom.InsertOps(key), pisa.Set(m("sr_pin_old"), pisa.C(1)))),
			},
			// Established connections: pinned to the old pool iff in the
			// transit set.
			append(bloom.TestOps(key), pisa.If(pisa.Eq(pisa.R(m(bloom.HitMeta())), pisa.C(1)), []pisa.Op{
				pisa.Set(m("sr_pin_old"), pisa.C(1)),
			})),
		),
		// Serve: pinned-old or pre-migration version 0 -> old pool.
		pisa.If(pisa.Eq(pisa.R(m("sr_pin_old")), pisa.C(1)), []pisa.Op{pisa.Set(m("sr_ver"), pisa.C(0))}),
		pisa.If(pisa.Eq(pisa.R(m("sr_ver")), pisa.C(0)),
			[]pisa.Op{
				pisa.Set(pisa.F("conn", "dip_pool"), pisa.C(0)),
				pisa.RegRMW(m("sr_mig"), RegOldServed, pisa.C(0), pisa.RMWAdd, pisa.C(1)),
			},
			[]pisa.Op{
				pisa.Set(pisa.F("conn", "dip_pool"), pisa.C(1)),
				pisa.RegRMW(m("sr_mig"), RegNewServed, pisa.C(0), pisa.RMWAdd, pisa.C(1)),
			},
		),
		pisa.Forward(pisa.C(PoolPort)),
	}
	prog.Control = []pisa.Op{pisa.If(pisa.Valid("conn"), connOps)}

	cfg := core.DefaultConfig(4, core.DigestCRC32)
	cfg.Insecure = !p.Secure
	exposed := append(bloom.RegisterNames(), RegMigrating, RegPoolVer, RegOldServed, RegNewServed)
	if err := core.AddToProgram(prog, cfg, core.Integration{Exposed: exposed}); err != nil {
		return nil, nil, cfg, err
	}
	return prog, bloom, cfg, nil
}

// New deploys the balancer.
func New(p Params) (*System, error) {
	prog, bloom, cfg, err := buildProgram(p)
	if err != nil {
		return nil, err
	}
	sw, err := pisa.NewSwitch(prog, pisa.TofinoProfile(), pisa.WithRandom(crypto.NewSeededRand(0x511C+p.Seed)))
	if err != nil {
		return nil, err
	}
	if err := core.Boot(sw, cfg); err != nil {
		return nil, err
	}
	host := switchos.NewHost(p.name(), sw, switchos.DefaultCosts())
	ctrl := controller.New(crypto.NewSeededRand(0x511D+p.Seed))
	if err := ctrl.Register(p.name(), host, cfg, 0); err != nil {
		return nil, err
	}
	s := &System{Params: p, Host: host, Ctrl: ctrl, Cfg: cfg, Bloom: bloom, Mirror: sketch.NewBloomMirror(bloom)}
	if p.Secure {
		if _, err := ctrl.LocalKeyInit(p.name()); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Packet sends one connection packet through the pipeline and returns the
// pool (0=old, 1=new) that served it.
func (s *System) Packet(conn uint32, syn bool) (pool int, err error) {
	synV := uint64(0)
	if syn {
		synV = 1
	}
	body, err := pisa.PackHeader(connDef, []uint64{uint64(conn), synV, 0})
	if err != nil {
		return 0, err
	}
	pkt := append([]byte{PTypeConn}, body...)
	res, err := s.Host.NetworkPacket(ClientPort, pkt)
	if err != nil {
		return 0, err
	}
	for _, em := range res.NetOut {
		if em.Port == PoolPort {
			vals, err := pisa.UnpackHeader(connDef, em.Data[1:])
			if err != nil {
				return 0, err
			}
			return int(vals[2]), nil
		}
	}
	return 0, errors.New("silkroad: packet not served")
}

func (s *System) write(name string, index uint32, v uint64) error {
	var err error
	if s.Params.Secure {
		_, err = s.Ctrl.WriteRegister(s.Params.name(), name, index, v)
	} else {
		_, err = s.Ctrl.WriteRegisterInsecure(s.Params.name(), name, index, v)
	}
	return err
}

// BeginMigration opens the transition window and switches the pool
// version (both over C-DP).
func (s *System) BeginMigration() error {
	if err := s.write(RegMigrating, 0, 1); err != nil && !errors.Is(err, controller.ErrTampered) {
		return err
	} else if errors.Is(err, controller.ErrTampered) {
		s.TamperedWrites++
	}
	if err := s.write(RegPoolVer, 0, 1); err != nil && !errors.Is(err, controller.ErrTampered) {
		return err
	} else if errors.Is(err, controller.ErrTampered) {
		s.TamperedWrites++
	}
	return nil
}

// FinishMigration clears the transit filter and closes the window — the
// C-DP update the paper's adversary targets. On detection the controller
// finishes through the quarantined (direct driver) path, the paper's
// operator response.
func (s *System) FinishMigration() error {
	tampered := false
	// Clear the transit filter bits.
	for _, name := range s.Bloom.RegisterNames() {
		for i := 0; i < s.Bloom.Bits; i++ {
			if err := s.write(name, uint32(i), 0); err != nil {
				if errors.Is(err, controller.ErrTampered) {
					s.TamperedWrites++
					tampered = true
					break
				}
				return err
			}
		}
		if tampered {
			break
		}
	}
	if !tampered {
		if err := s.write(RegMigrating, 0, 0); err != nil {
			if errors.Is(err, controller.ErrTampered) {
				s.TamperedWrites++
				tampered = true
			} else {
				return err
			}
		}
	}
	if tampered && s.Params.Secure {
		// Detected: complete through the quarantined driver path.
		if err := s.Mirror.Clear(s.Host.SW); err != nil {
			return err
		}
		return s.Host.SW.RegisterWrite(RegMigrating, 0, 0)
	}
	return nil
}

// Served reports how many packets each pool version served.
func (s *System) Served() (old, new uint64, err error) {
	old, err = s.Host.SW.RegisterRead(RegOldServed, 0)
	if err != nil {
		return 0, 0, err
	}
	new, err = s.Host.SW.RegisterRead(RegNewServed, 0)
	return old, new, err
}

// ResetCounters zeroes the served counters.
func (s *System) ResetCounters() error {
	if err := s.Host.SW.RegisterWrite(RegOldServed, 0, 0); err != nil {
		return err
	}
	return s.Host.SW.RegisterWrite(RegNewServed, 0, 0)
}

// InstallClearSuppressor installs the paper's adversary: C-DP writes that
// would end the migration (clear transit bits, reset the migrating flag)
// are rewritten so the data plane keeps the old pool live.
func (s *System) InstallClearSuppressor() error {
	ids := map[uint32]bool{}
	for _, name := range append(s.Bloom.RegisterNames(), RegMigrating) {
		ri, err := s.Host.Info.RegisterByName(name)
		if err != nil {
			return err
		}
		ids[ri.ID] = true
	}
	return s.Host.Install(switchos.BoundaryAgentSDK, &switchos.Hooks{
		OnPacketOut: func(data []byte) []byte {
			m, err := core.DecodeMessage(data)
			if err != nil || m.Reg == nil || m.MsgType != core.MsgWriteReq {
				return data
			}
			if ids[m.Reg.RegID] && m.Reg.Value == 0 {
				m.Reg.Value = 1 // keep the transit state alive
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

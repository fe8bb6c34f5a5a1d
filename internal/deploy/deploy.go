// Package deploy assembles ready-to-run P4Auth switches: a host program
// (by default a minimal ptype-only shell plus caller-supplied registers),
// the woven-in P4Auth data plane, compilation for a target profile, boot
// seeding, register-map population, and the switch-software stack.
package deploy

import (
	"fmt"

	"p4auth/internal/core"
	"p4auth/internal/crypto"
	"p4auth/internal/p4rt"
	"p4auth/internal/pisa"
	"p4auth/internal/switchos"
)

// SwitchSpec describes one switch to build.
type SwitchSpec struct {
	Name    string
	Ports   int
	Profile pisa.Profile
	// Digest defaults to CRC32 on hardware profiles and HalfSipHash on
	// software profiles when zero.
	Digest core.DigestKind
	// Insecure builds the DP-Reg-RW baseline (no digests).
	Insecure bool
	// Registers are host registers to declare; all are exposed for
	// authenticated C-DP access.
	Registers []*pisa.RegisterDef
	// Costs defaults to switchos.DefaultCosts when zero.
	Costs *switchos.Costs
	// RandSeed seeds the data plane's random() extern.
	RandSeed uint64
	// Config overrides the derived default config when non-nil.
	Config *core.Config
}

// Switch is a deployed switch: host (stack + pipeline) plus its config.
type Switch struct {
	Host *switchos.Host
	Cfg  core.Config
}

// Build assembles the switch.
func Build(spec SwitchSpec) (*Switch, error) {
	if spec.Name == "" {
		return nil, fmt.Errorf("deploy: switch needs a name")
	}
	if spec.Ports == 0 {
		spec.Ports = 8
	}
	if spec.Profile.Name == "" {
		spec.Profile = pisa.TofinoProfile()
	}
	if spec.Digest == 0 {
		if spec.Profile.AllowExterns {
			spec.Digest = core.DigestHalfSipHash
		} else {
			spec.Digest = core.DigestCRC32
		}
	}
	cfg := core.DefaultConfig(spec.Ports, spec.Digest)
	if spec.Config != nil {
		cfg = *spec.Config
	}
	cfg.Insecure = cfg.Insecure || spec.Insecure

	prog := &pisa.Program{
		Name:         spec.Name + "_prog",
		Headers:      []*pisa.HeaderDef{core.PTypeHeader()},
		Parser:       []pisa.ParserState{{Name: pisa.ParserStart, Extract: core.HdrPType}},
		DeparseOrder: []string{core.HdrPType},
		Registers:    spec.Registers,
	}
	exposed := make([]string, 0, len(spec.Registers))
	for _, r := range spec.Registers {
		exposed = append(exposed, r.Name)
	}
	if err := core.AddToProgram(prog, cfg, core.Integration{Exposed: exposed}); err != nil {
		return nil, fmt.Errorf("deploy: %s: %w", spec.Name, err)
	}

	seed := spec.RandSeed
	if seed == 0 {
		seed = 0xDA7A_0000 ^ uint64(len(spec.Name))<<32 ^ uint64(spec.Ports)
	}
	sw, err := pisa.NewSwitch(prog, spec.Profile, pisa.WithRandom(crypto.NewSeededRand(seed)))
	if err != nil {
		return nil, fmt.Errorf("deploy: %s: %w", spec.Name, err)
	}
	if err := core.Boot(sw, cfg); err != nil {
		return nil, err
	}
	if err := core.InstallRegMap(sw, p4rt.InfoFromProgram(prog), exposed); err != nil {
		return nil, err
	}
	costs := switchos.DefaultCosts()
	if spec.Costs != nil {
		costs = *spec.Costs
	}
	return &Switch{Host: switchos.NewHost(spec.Name, sw, costs), Cfg: cfg}, nil
}

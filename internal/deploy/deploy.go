// Package deploy assembles ready-to-run P4Auth switches: a host program
// (by default a minimal ptype-only shell plus caller-supplied registers),
// the woven-in P4Auth data plane, compilation for a target profile, boot
// seeding, register-map population, and the switch-software stack.
package deploy

import (
	"fmt"
	"strings"

	"p4auth/internal/core"
	"p4auth/internal/crypto"
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

// Build assembles the switch. Switches whose specs agree on every program
// input (programKey) share one compilation (pisa.CompileOnce).
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

	exposed := make([]string, 0, len(spec.Registers))
	var regs strings.Builder
	for _, r := range spec.Registers {
		exposed = append(exposed, r.Name)
		fmt.Fprintf(&regs, "%q %d %d;", r.Name, r.Width, r.Entries)
	}
	key := programKey{Config: cfg, Registers: regs.String()}
	compiled, err := pisa.CompileOnce(key, spec.Profile, func() (*pisa.Program, error) {
		return program(spec.Registers, exposed, cfg)
	})
	if err != nil {
		return nil, fmt.Errorf("deploy: %s: %w", spec.Name, err)
	}

	seed := spec.RandSeed
	if seed == 0 {
		seed = 0xDA7A_0000 ^ uint64(len(spec.Name))<<32 ^ uint64(spec.Ports)
	}
	sw := pisa.NewSwitchFromCompiled(compiled, pisa.WithRandom(crypto.NewSeededRand(seed)))
	if err := core.Boot(sw, cfg); err != nil {
		return nil, err
	}
	host := switchos.NewHost(spec.Name, sw, switchos.DefaultCosts())
	return &Switch{Host: host, Cfg: cfg}, nil
}

// programKey is every input of program: Config is what the spec's Ports,
// Digest, Config and Insecure derive, and Registers holds the register
// definitions by value. Name and RandSeed are per-switch state, so
// switches that differ only in them share one compilation.
type programKey struct {
	Config    core.Config
	Registers string
}

// program is the switch's program: a ptype-only shell declaring copies of
// regs, so that a caller editing its RegisterDef later cannot reach a
// program other switches share, with P4Auth woven in. Like hula's, it is
// named for what it is, not for a switch.
func program(regs []*pisa.RegisterDef, exposed []string, cfg core.Config) (*pisa.Program, error) {
	prog := &pisa.Program{
		Name:         "p4auth_shell",
		Headers:      []*pisa.HeaderDef{core.PTypeHeader()},
		Parser:       []pisa.ParserState{{Name: pisa.ParserStart, Extract: core.HdrPType}},
		DeparseOrder: []string{core.HdrPType},
	}
	for _, r := range regs {
		def := *r
		prog.Registers = append(prog.Registers, &def)
	}
	return prog, core.AddToProgram(prog, cfg, core.Integration{Exposed: exposed})
}

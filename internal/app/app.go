// Package app is the one scaffold of the paper's single-switch Table I
// applications (blink, flowradar, netcache, netwarden, routescout,
// silkroad and sketch's heavy-hitter detector). Each app brings its host
// program and a Spec of what sets it apart; New weaves P4Auth in, boots
// the switch, stacks the switch software on it and registers it at a
// fresh controller. Read and Write pick the C-DP path from the Spec's
// mode, and Rewrite installs the app's §II-A adversary, the switch-OS
// backdoor, as an attacker.CtrlPlaneMitM.
package app

import (
	"fmt"
	"time"

	"p4auth/internal/attacker"
	"p4auth/internal/controller"
	"p4auth/internal/core"
	"p4auth/internal/crypto"
	"p4auth/internal/pisa"
	"p4auth/internal/switchos"
)

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

// ModeOf maps an app's protection switch onto its mode.
func ModeOf(secure bool) Mode {
	if secure {
		return ModeP4Auth
	}
	return ModeInsecure
}

// Spec is what sets one app's deployment apart from the others'.
type Spec struct {
	// Name identifies the switch at its controller.
	Name string
	// Mode is the C-DP path; New rejects a value outside the three.
	Mode Mode
	// Profile is the target the program compiles for; it also picks the
	// digest (HalfSipHash where externs are allowed, CRC32 elsewhere).
	Profile pisa.Profile
	// Ports is the number of front-panel ports P4Auth keys.
	Ports int
	// Exposed lists the host-program registers reachable over C-DP.
	Exposed []string
	// Seed seeds the switch's PRNG; the controller's is Seed+1.
	Seed uint64
	// Latency is the controller-to-switch channel's one-way delay.
	Latency time.Duration
}

// App is one app's switch, its software stack and its controller.
type App struct {
	Name string
	Mode Mode
	Host *switchos.Host
	Ctrl *controller.Controller
	// Cfg is the P4Auth core configuration the switch booted with;
	// exported so a recovery path can re-Register the switch at a fresh
	// controller after a controller kill.
	Cfg core.Config
}

// New weaves P4Auth into prog (insecure in ModeInsecure), compiles it for
// the spec's profile, boots the switch and registers it at a new
// controller.
func New(prog *pisa.Program, s Spec) (*App, error) {
	if s.Mode < ModeP4Auth || s.Mode > ModeAPI {
		return nil, fmt.Errorf("app: %s: unknown mode %d", s.Name, int(s.Mode))
	}
	digest := core.DigestCRC32
	if s.Profile.AllowExterns {
		digest = core.DigestHalfSipHash
	}
	cfg := core.DefaultConfig(s.Ports, digest)
	cfg.Insecure = s.Mode == ModeInsecure
	if err := core.AddToProgram(prog, cfg, core.Integration{Exposed: s.Exposed}); err != nil {
		return nil, err
	}
	sw, err := pisa.NewSwitch(prog, s.Profile, pisa.WithRandom(crypto.NewSeededRand(s.Seed)))
	if err != nil {
		return nil, err
	}
	if err := core.Boot(sw, cfg); err != nil {
		return nil, err
	}
	a := &App{
		Name: s.Name,
		Mode: s.Mode,
		Host: switchos.NewHost(s.Name, sw, switchos.DefaultCosts()),
		Ctrl: controller.New(crypto.NewSeededRand(s.Seed + 1)),
		Cfg:  cfg,
	}
	if err := a.Ctrl.Register(s.Name, a.Host, cfg, s.Latency); err != nil {
		return nil, err
	}
	return a, nil
}

// Read reads one register entry over the mode's C-DP path.
func (a *App) Read(reg string, index uint32) (uint64, error) {
	var v uint64
	var err error
	switch a.Mode {
	case ModeP4Auth:
		v, _, err = a.Ctrl.ReadRegister(a.Name, reg, index)
	case ModeInsecure:
		v, _, err = a.Ctrl.ReadRegisterInsecure(a.Name, reg, index)
	default:
		v, _, err = a.Ctrl.ReadRegisterAPI(a.Name, reg, index)
	}
	return v, err
}

// Write writes one register entry over the mode's C-DP path.
func (a *App) Write(reg string, index uint32, v uint64) error {
	var err error
	switch a.Mode {
	case ModeP4Auth:
		_, err = a.Ctrl.WriteRegister(a.Name, reg, index, v)
	case ModeInsecure:
		_, err = a.Ctrl.WriteRegisterInsecure(a.Name, reg, index, v)
	default:
		_, err = a.Ctrl.WriteRegisterAPI(a.Name, reg, index, v)
	}
	return err
}

// Rewrite installs the app's adversary at the agent-SDK boundary: a
// CtrlPlaneMitM that hands f the index and value of every register
// message of type msgType on one of regs. msgType is core.MsgWriteReq
// (updates, caught on their way down, and so are writes on the API
// stack) or core.MsgAck (reports, caught on their way up, and so are
// read results on the API stack). f returns the value to put in its
// place, or false to let the message pass.
func (a *App) Rewrite(msgType uint8, regs []string, f func(index uint32, value uint64) (uint64, bool)) error {
	ids := make(map[uint32]bool, len(regs))
	names := make(map[string]bool, len(regs))
	for _, name := range regs {
		ri, err := a.Host.Info.RegisterByName(name)
		if err != nil {
			return err
		}
		ids[ri.ID], names[name] = true, true
	}
	down := msgType != core.MsgAck
	m := &attacker.CtrlPlaneMitM{
		RewriteMessage: func(m *core.Message, toDataPlane bool) bool {
			if toDataPlane != down || m.HdrType != core.HdrRegister || m.MsgType != msgType || !ids[m.Reg.RegID] {
				return false
			}
			nv, ok := f(m.Reg.Index, m.Reg.Value)
			if ok {
				m.Reg.Value = nv
			}
			return ok
		},
	}
	// On the API stack the request and the read result carry the
	// register's name.
	named := func(reg string, index uint32, v uint64) uint64 {
		if names[reg] {
			if nv, ok := f(index, v); ok {
				return nv
			}
		}
		return v
	}
	if down {
		m.RewriteRegWrite = named
	} else {
		m.RewriteReadResult = named
	}
	return a.Host.Install(switchos.BoundaryAgentSDK, m.Hooks())
}

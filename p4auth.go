// Package p4auth is a from-scratch Go reproduction of "Securing
// In-Network Traffic Control Systems with P4Auth" (DSN 2025): a key-based
// protection mechanism that authenticates and integrity-protects the
// controller-to-data-plane (C-DP) and data-plane-to-data-plane (DP-DP)
// messages that update or report programmable-switch state, with all
// checks and the key-management cryptography running inside a modeled
// PISA pipeline under Tofino-class constraints.
//
// The facade re-exports the main entry points; the implementation lives
// under internal/:
//
//   - internal/pisa — the PISA switch model (pipeline, tables, registers,
//     hash units, compiler with Table II-style resource accounting)
//   - internal/crypto — HalfSipHash, keyed CRC32, modified Diffie-Hellman,
//     the Extract-and-Expand KDF
//   - internal/core — the P4Auth protocol and its generated data plane
//   - internal/switchos — the untrusted switch software stack (the attack
//     surface)
//   - internal/controller — the controller: authenticated register I/O and
//     the key-management protocol
//   - internal/netsim, internal/hula, internal/routescout, internal/fleet
//     (with the Table I apps it drives: internal/blink, silkroad,
//     netwarden, netcache, flowradar), internal/attacker, internal/trace —
//     the evaluation substrate
//   - internal/bench — regenerates every table and figure of §IX
//
// Quick start (see examples/quickstart for the runnable version):
//
//	sw, _ := deploy.Build(deploy.SwitchSpec{Name: "s1", Ports: 4,
//	    Registers: []*pisa.RegisterDef{{Name: "lat", Width: 32, Entries: 8}}})
//	ctrl := controller.New(crypto.NewSeededRand(1))
//	ctrl.Register("s1", sw.Host, sw.Cfg, 0)
//	ctrl.LocalKeyInit("s1")                     // EAK + ADHKD, §VI
//	ctrl.WriteRegister("s1", "lat", 0, 42)      // authenticated, §V
package p4auth

import (
	"p4auth/internal/controller"
	"p4auth/internal/core"
	"p4auth/internal/crypto"
	"p4auth/internal/deploy"
	"p4auth/internal/pisa"
	"p4auth/internal/switchos"
)

// Re-exported constructors and types for library consumers.

// NewController returns a P4Auth controller using the given randomness
// source for key-exchange secrets.
func NewController(rng crypto.RandomSource) *controller.Controller {
	return controller.New(rng)
}

// BuildSwitch assembles a ready-to-run P4Auth switch.
func BuildSwitch(spec deploy.SwitchSpec) (*deploy.Switch, error) {
	return deploy.Build(spec)
}

// DefaultConfig returns a deployable P4Auth configuration.
func DefaultConfig(ports int, kind core.DigestKind) core.Config {
	return core.DefaultConfig(ports, kind)
}

// Convenience aliases for the most commonly used types.
type (
	// Config is the per-deployment P4Auth parameter set.
	Config = core.Config
	// Controller manages switches: authenticated register I/O and KMP.
	Controller = controller.Controller
	// Switch is a deployed switch (software stack plus data plane).
	Switch = deploy.Switch
	// SwitchSpec describes a switch to build.
	SwitchSpec = deploy.SwitchSpec
	// Message is a P4Auth wire message.
	Message = core.Message
	// KeyStore is the two-version key table.
	KeyStore = core.KeyStore
	// Profile is a data-plane target profile.
	Profile = pisa.Profile
	// RegisterDef declares a data-plane register array.
	RegisterDef = pisa.RegisterDef
	// Hooks are switch-stack interposition points (the attack surface).
	Hooks = switchos.Hooks
)

// Digest algorithm kinds.
const (
	DigestHalfSipHash = core.DigestHalfSipHash
	DigestCRC32       = core.DigestCRC32
)

// Target profiles.
var (
	// TofinoProfile models the hardware target.
	TofinoProfile = pisa.TofinoProfile
	// BMv2Profile models the software reference switch.
	BMv2Profile = pisa.BMv2Profile
)

// ErrTampered is returned when a message fails authentication.
var ErrTampered = controller.ErrTampered

// Package chaos is a deterministic crash/restart fault-injection harness
// for the P4Auth control plane. It builds a two-switch fabric over the
// virtual-time simulator, schedules a controller kill or a switch-agent
// crash at an exact control-channel packet count inside a chosen protocol
// phase (key rollover, register write, port-key init), runs the recovery
// protocol, and checks the crash-safety invariants:
//
//   - no forged message is ever accepted (probed with garbage-key signed
//     writes before and after every recovery);
//   - replay floors never regress while key material survives (a cold
//     boot wipes keys WITH the floors, so old traffic cannot replay);
//   - keys reconverge: the interrupted operation retried after recovery
//     succeeds, as do rollovers, port-key updates, and authenticated
//     register round-trips on every switch;
//   - journaled register writes are applied exactly once or reported
//     failed — never duplicated, never silently lost, never left as a
//     dangling intent.
//
// Every run is driven by a seeded deterministic RNG and the virtual
// clock, and emits a trace of timestamped events. Two runs with equal
// Options must produce bit-for-bit identical traces — that property is
// itself asserted by the test suite, because a chaos bug you cannot
// replay is a chaos bug you cannot fix.
//
// The package lives beside netsim rather than inside it because the
// controller imports netsim; the harness sits one level up and closes
// the loop controller -> netsim -> (chaos).
package chaos

import (
	"fmt"
	"time"

	"p4auth/internal/controller"
	"p4auth/internal/core"
	"p4auth/internal/crypto"
	"p4auth/internal/deploy"
	"p4auth/internal/netsim"
	"p4auth/internal/obs"
	"p4auth/internal/pisa"
	"p4auth/internal/statestore"
)

// Scenario selects the protocol phase the fault lands in.
type Scenario string

const (
	// MidRollover crashes during a LocalKeyUpdate on s1.
	MidRollover Scenario = "rollover"
	// MidRegisterWrite crashes during a journaled WriteRegister on s1.
	MidRegisterWrite Scenario = "regwrite"
	// MidPortKeyInit crashes during PortKeyInit on the s1<->s2 link.
	MidPortKeyInit Scenario = "portinit"
)

// Victim selects what dies.
type Victim string

const (
	// KillController kills the controller process mid-operation; recovery
	// is a rebuilt controller warm-restarting from the durable store.
	KillController Victim = "controller"
	// CrashSwitch crashes the target switch agent mid-operation; recovery
	// is a reboot (warm or cold per Options.WarmDevice) plus ReviveSwitch.
	CrashSwitch Victim = "switch"
	// BackToBack runs a controller kill and then a switch crash in
	// sequence, each mid-operation, with recovery and invariant checks
	// after each — the compound failure the paper's operators actually
	// fear.
	BackToBack Victim = "back-to-back"
)

// Options fully determines a chaos run. Equal Options must produce equal
// traces.
type Options struct {
	// Seed drives every random choice (victim switch, written values,
	// rebuilt-controller key material).
	Seed uint64
	// Scenario is the protocol phase the fault interrupts.
	Scenario Scenario
	// Victim is what crashes.
	Victim Victim
	// CrashAt is the 1-based control-channel packet count (requests and
	// responses share the counter) at which the fault fires. If the
	// interrupted operation uses fewer packets, the fault fires right
	// after it instead — a run always contains its crash.
	CrashAt int
	// WarmDevice reboots a crashed switch from a device snapshot saved
	// at baseline; false models a cold boot to factory state.
	WarmDevice bool
}

// Result is the outcome of a run.
type Result struct {
	// Trace is the deterministic event log.
	Trace []string
	// Violations lists every invariant breach; empty means the run is
	// clean.
	Violations []string
	// CtlKills and SwCrashes count the faults injected.
	CtlKills, SwCrashes int
	// Warm reports whether the last controller recovery of each switch
	// was warm (no K_seed use).
	Warm map[string]bool
}

// latEntries mirrors the "lat" register the harness fabric declares.
const latEntries = 8

// forgeryIndex is the lat slot reserved for forged writes; the harness
// never writes it legitimately, so any non-zero value is a violation.
const forgeryIndex = latEntries - 1

// rng is splitmix64 — small, seedable, and stable across Go versions,
// which math/rand's shuffling is not guaranteed to be.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

type harness struct {
	o     Options
	res   *Result
	rng   rng
	sim   *netsim.Sim
	store *statestore.Mem
	// ob is the run's shared observer: controller generations come and
	// go, but the metrics registry and the audit trail persist across
	// them — the post-run audit sweep needs the whole story.
	ob    *obs.Observer
	c     *controller.Controller
	sw    map[string]*deploy.Switch
	names []string
	// shadow models the expected "lat" contents per switch; a reboot
	// wipes user registers (device snapshots persist only P4Auth state).
	shadow map[string][]uint64
	// floors holds the last observed RegSeq file per switch for the
	// no-regression check; nil after a cold boot (floors legitimately
	// reset together with the keys that made old traffic verifiable).
	floors map[string][]uint64
	ctlGen uint64
	tapN   int
	fired  bool
	// armed fault for the current round
	victim Victim
	target string
}

func (h *harness) trace(format string, args ...interface{}) {
	h.res.Trace = append(h.res.Trace,
		fmt.Sprintf("t=%-12v ", h.sim.Now())+fmt.Sprintf(format, args...))
}

func (h *harness) violate(format string, args ...interface{}) {
	v := fmt.Sprintf(format, args...)
	h.res.Violations = append(h.res.Violations, v)
	h.trace("VIOLATION: %s", v)
}

// Run executes one deterministic chaos run.
func Run(o Options) (*Result, error) {
	if o.CrashAt < 1 {
		return nil, fmt.Errorf("chaos: CrashAt must be >= 1")
	}
	h := &harness{
		o:      o,
		res:    &Result{Warm: map[string]bool{}},
		rng:    rng{s: o.Seed ^ 0xC4A05AFE},
		sim:    netsim.NewSim(),
		store:  statestore.NewMem(),
		ob:     obs.NewObserver(0),
		sw:     map[string]*deploy.Switch{},
		names:  []string{"s1", "s2"},
		shadow: map[string][]uint64{},
		floors: map[string][]uint64{},
	}
	for _, n := range h.names {
		s, err := deploy.Build(deploy.SwitchSpec{
			Name:  n,
			Ports: 4,
			Registers: []*pisa.RegisterDef{
				{Name: "lat", Width: 32, Entries: latEntries},
			},
		})
		if err != nil {
			return nil, err
		}
		h.sw[n] = s
		h.shadow[n] = make([]uint64, latEntries)
	}
	if err := h.newController(); err != nil {
		return nil, err
	}
	if err := h.baseline(); err != nil {
		return nil, err
	}

	victims := []Victim{o.Victim}
	if o.Victim == BackToBack {
		victims = []Victim{KillController, CrashSwitch}
	}
	for round, v := range victims {
		h.trace("round %d: arming %s fault, scenario=%s crashAt=%d",
			round, v, o.Scenario, o.CrashAt)
		target := h.armFault(v)
		h.runArmedOp(round)
		if err := h.recover(v, target); err != nil {
			return h.res, err
		}
		rebooted := ""
		if v == CrashSwitch {
			rebooted = target
		}
		h.checkInvariants(fmt.Sprintf("round %d", round), rebooted)
		h.retryArmedOp(round)
	}
	h.finalExercise()
	h.checkAudit("final")
	return h.res, nil
}

// newController builds (or rebuilds, after a kill) the controller over
// the existing switches and attaches the shared durable store. The key
// material of each incarnation is derived deterministically from the run
// seed and the generation counter.
func (h *harness) newController() error {
	h.ctlGen++
	c := controller.New(crypto.NewSeededRand(h.o.Seed*1000003 + h.ctlGen))
	c.SetRetryPolicy(controller.ResilientRetryPolicy())
	c.UseClock(h.sim)
	for _, n := range h.names {
		s := h.sw[n]
		if err := c.Register(n, s.Host, s.Cfg, 50*time.Microsecond); err != nil {
			return err
		}
	}
	if err := c.ConnectSwitches("s1", 1, "s2", 1, 5*time.Microsecond); err != nil {
		return err
	}
	if err := c.EnableCrashSafety(h.store); err != nil {
		return err
	}
	c.SetObserver(h.ob)
	h.c = c
	return nil
}

// baseline establishes all keys, seeds some register state, saves the
// device snapshots warm reboots will use, and records the initial replay
// floors.
func (h *harness) baseline() error {
	if _, err := h.c.InitAllKeys(); err != nil {
		return fmt.Errorf("chaos: baseline key init: %w", err)
	}
	for _, n := range h.names {
		for idx := uint32(0); idx < 3; idx++ {
			v := h.rng.next() % 0xFFFF
			if _, err := h.c.WriteRegister(n, "lat", idx, v); err != nil {
				return fmt.Errorf("chaos: baseline write: %w", err)
			}
			h.shadow[n][idx] = v
		}
	}
	if h.o.WarmDevice {
		for _, n := range h.names {
			if err := h.sw[n].SaveState(h.store, "dev/"+n, 1); err != nil {
				return err
			}
		}
	}
	for _, n := range h.names {
		h.floors[n] = h.readFloors(n)
	}
	h.trace("baseline established, warmDevice=%v", h.o.WarmDevice)
	h.forgeryProbe("baseline")
	return nil
}

// armFault installs counting taps on the scenario's control channels and
// returns the name of the switch a CrashSwitch fault will hit.
func (h *harness) armFault(v Victim) string {
	target := "s1"
	channels := []string{"s1"}
	if h.o.Scenario == MidPortKeyInit {
		channels = []string{"s1", "s2"}
		target = h.names[h.rng.intn(len(h.names))]
	}
	h.tapN, h.fired = 0, false
	h.victim, h.target = v, target
	tap := func(b []byte) []byte {
		h.tapN++
		if !h.fired && h.tapN == h.o.CrashAt {
			h.fire(fmt.Sprintf("at packet %d", h.tapN))
			return nil // the packet carrying the fault dies with it
		}
		return b
	}
	for _, ch := range channels {
		// Requests and responses share the counter, so odd CrashAt values
		// land on requests and even ones on responses.
		if err := h.c.SetControlTaps(ch, tap, tap); err != nil {
			panic(err) // topology bug in the harness itself
		}
	}
	// If the operation completes in fewer packets than CrashAt, fire the
	// fault immediately after it: every run must contain its crash.
	return target
}

// disarm clears all control taps (on a live controller).
func (h *harness) disarm() {
	for _, ch := range h.names {
		_ = h.c.SetControlTaps(ch, nil, nil)
	}
}

// runArmedOp executes the scenario operation that the armed fault will
// interrupt, then guarantees the fault has fired.
func (h *harness) runArmedOp(round int) {
	var err error
	switch h.o.Scenario {
	case MidRollover:
		_, err = h.c.LocalKeyUpdate("s1")
	case MidRegisterWrite:
		v := h.rng.next() % 0xFFFF
		_, err = h.c.WriteRegister("s1", "lat", 4, v)
		if err == nil {
			h.shadow["s1"][4] = v
		}
	case MidPortKeyInit:
		_, err = h.c.PortKeyInit("s1", 1, "s2", 1)
	}
	h.trace("armed op round %d: err=%v", round, err)
	if !h.fired {
		// The op was too short for CrashAt; crash now, between ops.
		h.fire("post-op")
	}
}

// fire triggers the armed fault.
func (h *harness) fire(where string) {
	h.fired = true
	if h.victim == KillController {
		h.res.CtlKills++
		h.trace("fault: controller killed %s", where)
		h.c.Kill()
	} else {
		h.res.SwCrashes++
		h.trace("fault: switch %s crashed %s", h.target, where)
		h.sw[h.target].Crash()
	}
}

// recover runs the recovery protocol for the given victim.
func (h *harness) recover(v Victim, target string) error {
	if v == KillController {
		if err := h.newController(); err != nil {
			return err
		}
		warm, err := h.c.RecoverAll()
		if err != nil {
			h.violate("RecoverAll: %v", err)
		}
		for _, n := range h.names {
			h.res.Warm[n] = warm[n]
			h.trace("recovered controller: %s warm=%v seedUses=%d",
				n, warm[n], h.c.SeedUses(n))
			if warm[n] && h.c.SeedUses(n) != 0 {
				h.violate("%s: warm restart used K_seed %d times", n, h.c.SeedUses(n))
			}
		}
		return nil
	}
	// Switch crash: the (live) controller keeps its state; clear the
	// fault taps, reboot the agent, revive.
	h.disarm()
	s := h.sw[target]
	var warm bool
	var err error
	if h.o.WarmDevice {
		warm, err = s.RebootFromStore(h.store, "dev/"+target)
	} else {
		err = s.Reboot(nil)
	}
	if err != nil {
		return fmt.Errorf("chaos: reboot %s: %w", target, err)
	}
	// Any reboot wipes user registers; a cold one also wipes keys and
	// replay floors (old traffic is unverifiable, so that is sound).
	h.shadow[target] = make([]uint64, latEntries)
	if !warm {
		h.floors[target] = nil
	}
	revWarm, err := h.c.ReviveSwitch(target)
	h.trace("rebooted %s warmDevice=%v: revive warm=%v err=%v", target, warm, revWarm, err)
	if err != nil {
		h.violate("ReviveSwitch(%s): %v", target, err)
	}
	if warm && !revWarm {
		h.violate("%s: warm device snapshot but revival fell back to re-seed", target)
	}
	if !warm {
		// Cold boot loses the port keys on this switch; re-establish the
		// link before the invariant sweep expects port traffic to work.
		if _, err := h.c.PortKeyInit("s1", 1, "s2", 1); err != nil {
			h.violate("PortKeyInit after cold boot of %s: %v", target, err)
		}
	}
	return nil
}

// retryArmedOp re-issues the interrupted operation — the operator's
// natural next step — and requires it to succeed on a recovered fabric.
func (h *harness) retryArmedOp(round int) {
	var err error
	switch h.o.Scenario {
	case MidRollover:
		_, err = h.c.LocalKeyUpdate("s1")
	case MidRegisterWrite:
		v := h.rng.next() % 0xFFFF
		if _, err = h.c.WriteRegister("s1", "lat", 4, v); err == nil {
			h.shadow["s1"][4] = v
		}
	case MidPortKeyInit:
		_, err = h.c.PortKeyInit("s1", 1, "s2", 1)
	}
	if err != nil {
		h.violate("retry of interrupted %s op after recovery round %d: %v",
			h.o.Scenario, round, err)
	} else {
		h.trace("retried %s op round %d: ok", h.o.Scenario, round)
	}
}

// checkInvariants is the post-recovery sweep.
func (h *harness) checkInvariants(label, rebooted string) {
	// 1. The journal holds no dangling intents, on any switch.
	for _, n := range h.names {
		entries, err := h.c.JournalEntries(n)
		if err != nil {
			h.violate("%s: %s: JournalEntries: %v", label, n, err)
			continue
		}
		for _, e := range entries {
			if e.State == core.WriteIntent {
				h.violate("%s: dangling journal intent: %s", label, e.Dump())
			}
		}
		h.trace("%s: %s journal entries=%d", label, n, len(entries))
	}
	// 2. Register-write exactly-once: the interrupted write's slot holds
	// a value the harness actually asked for (its shadow, or — when the
	// journal replay re-drove or confirmed the in-flight value — that
	// value). It must never hold anything else.
	if h.o.Scenario == MidRegisterWrite && rebooted == "" {
		got, _, err := h.c.ReadRegister("s1", "lat", 4)
		if err != nil {
			h.violate("%s: read of journaled slot: %v", label, err)
		} else {
			h.trace("%s: journaled slot lat[4]=%d", label, got)
			h.shadow["s1"][4] = got // settled by recovery; adopt it
		}
	}
	// 3. Replay floors never regress while keys survive.
	for _, n := range h.names {
		cur := h.readFloors(n)
		if old := h.floors[n]; old != nil {
			for i := range old {
				if i < len(cur) && cur[i] < old[i] {
					h.violate("%s: %s seq floor %d regressed %d -> %d",
						label, n, i, old[i], cur[i])
				}
			}
		}
		h.floors[n] = cur
	}
	// 4. Forgery still bounces off every switch.
	h.forgeryProbe(label)
	// 5. The audit log explains everything the metrics counted.
	h.checkAudit(label)
}

// finalExercise proves full reconvergence: rollovers, port-key update,
// authenticated round-trips on every switch, port slots in agreement.
func (h *harness) finalExercise() {
	h.disarm()
	for _, n := range h.names {
		if _, err := h.c.LocalKeyUpdate(n); err != nil {
			h.violate("final rollover on %s: %v", n, err)
		}
	}
	if _, err := h.c.PortKeyUpdate("s1", 1); err != nil {
		h.violate("final port-key update: %v", err)
	}
	for _, n := range h.names {
		for idx := uint32(0); idx < 3; idx++ {
			v := h.rng.next() % 0xFFFF
			if _, err := h.c.WriteRegister(n, "lat", idx, v); err != nil {
				h.violate("final write %s lat[%d]: %v", n, idx, err)
				continue
			}
			h.shadow[n][idx] = v
			got, _, err := h.c.ReadRegister(n, "lat", idx)
			if err != nil {
				h.violate("final read %s lat[%d]: %v", n, idx, err)
			} else if got != v {
				h.violate("final round-trip %s lat[%d]: wrote %d read %d", n, idx, v, got)
			}
		}
	}
	h.checkPortSync()
	h.forgeryProbe("final")
	for _, n := range h.names {
		h.trace("final: %s floors=%v shadow=%v", n, h.readFloors(n), h.shadow[n])
	}
}

// checkAudit is the observability completeness sweep: every floor bump
// and every dropped write the metrics counted must be explained by an
// audit event naming a non-empty cause. Counters and the audit ring are
// shared across controller generations, so the comparison covers the
// whole run so far.
func (h *harness) checkAudit(label string) {
	m, a := h.ob.Metrics, h.ob.Audit
	if a.Evicted() > 0 {
		// The ring wrapped; counts can no longer be reconciled. A chaos
		// run should never come close to the default capacity.
		h.violate("%s: audit ring evicted %d events", label, a.Evicted())
		return
	}
	bumps := m.Counter("ctl.floor_bumps").Load()
	drops := m.Counter("ctl.write_dropped").Load()
	if n := uint64(len(a.ByType(obs.EvFloorBump))); n != bumps {
		h.violate("%s: %d floor bumps counted but %d audit events explain them", label, bumps, n)
	}
	if n := uint64(len(a.ByType(obs.EvWriteDropped))); n != drops {
		h.violate("%s: %d dropped writes counted but %d audit events explain them", label, drops, n)
	}
	for _, e := range a.Events() {
		switch e.Type {
		case obs.EvFloorBump, obs.EvWriteDropped, obs.EvDigestMismatch,
			obs.EvReplayRejected, obs.EvRolloverRollback, obs.EvWALSettle:
			if e.Cause == "" {
				h.violate("%s: audit event #%d (%s on %s) names no cause",
					label, e.ID, e.Type, e.Actor)
			}
		}
	}
	h.trace("%s: audit reconciled: floor_bumps=%d write_dropped=%d events=%d",
		label, bumps, drops, a.Len())
}

// checkPortSync requires both ends of the s1<->s2 link to agree on the
// port slot's install counter and active key.
func (h *harness) checkPortSync() {
	a, b := h.sw["s1"].Host.SW, h.sw["s2"].Host.SW
	verA, errA := a.RegisterRead(core.RegVer, 1)
	verB, errB := b.RegisterRead(core.RegVer, 1)
	if errA != nil || errB != nil {
		h.violate("port ver read: %v / %v", errA, errB)
		return
	}
	if verA != verB {
		h.violate("port install counters diverged: s1=%d s2=%d", verA, verB)
		return
	}
	reg := core.RegKeysV0
	if verA&1 == 1 {
		reg = core.RegKeysV1
	}
	keyA, _ := a.RegisterRead(reg, 1)
	keyB, _ := b.RegisterRead(reg, 1)
	if keyA != keyB || keyA == 0 {
		h.violate("port keys diverged at version %d: %#x vs %#x", verA, keyA, keyB)
	}
	h.trace("port slot in sync: ver=%d", verA)
}

// forgeryProbe injects a register write signed under a garbage key into
// every live switch and asserts nothing changed: neither the target
// register nor the key-version table moved, and the replay floor did not
// advance (the data plane checks the digest before the floor, so a
// forgery must not even touch it).
func (h *harness) forgeryProbe(label string) {
	for _, n := range h.names {
		s := h.sw[n]
		if s.Host.Down() {
			continue
		}
		ri, err := s.Host.Info.RegisterByName("lat")
		if err != nil {
			h.violate("%s: forgery probe setup: %v", label, err)
			return
		}
		dig, err := s.Cfg.Digester()
		if err != nil {
			h.violate("%s: forgery probe digester: %v", label, err)
			return
		}
		before, _ := s.Host.SW.RegisterRead("lat", forgeryIndex)
		verBefore, _ := s.Host.SW.RegisterRead(core.RegVer, core.KeyIndexLocal)
		floorBefore, _ := s.Host.SW.RegisterRead(core.RegSeq, 0)
		m := &core.Message{
			Header: core.Header{
				HdrType: core.HdrRegister, MsgType: core.MsgWriteReq,
				SeqNum: uint32(floorBefore) + 1000, KeyVersion: uint8(verBefore),
			},
			Reg: &core.RegPayload{RegID: ri.ID, Index: forgeryIndex, Value: 0xDEAD},
		}
		if err := m.Sign(dig, 0xBAD0_0BAD^h.rng.next()); err != nil {
			h.violate("%s: forgery sign: %v", label, err)
			return
		}
		b, err := m.Encode()
		if err != nil {
			h.violate("%s: forgery encode: %v", label, err)
			return
		}
		if _, err := s.Host.PacketOut(b); err != nil {
			h.trace("%s: forgery toward %s rejected at injection: %v", label, n, err)
		}
		after, _ := s.Host.SW.RegisterRead("lat", forgeryIndex)
		verAfter, _ := s.Host.SW.RegisterRead(core.RegVer, core.KeyIndexLocal)
		floorAfter, _ := s.Host.SW.RegisterRead(core.RegSeq, 0)
		if after != before {
			h.violate("%s: FORGERY ACCEPTED on %s: lat[%d] %d -> %d",
				label, n, forgeryIndex, before, after)
		}
		if verAfter != verBefore {
			h.violate("%s: forgery moved key version on %s: %d -> %d",
				label, n, verBefore, verAfter)
		}
		if floorAfter != floorBefore {
			h.violate("%s: forgery advanced replay floor on %s: %d -> %d",
				label, n, floorBefore, floorAfter)
		}
		h.trace("%s: forgery bounced off %s", label, n)
	}
}

// readFloors returns the full RegSeq file of a switch (replay floors for
// every slot and stream).
func (h *harness) readFloors(n string) []uint64 {
	var out []uint64
	sw := h.sw[n].Host.SW
	for i := 0; i < 64; i++ {
		v, err := sw.RegisterRead(core.RegSeq, i)
		if err != nil {
			break
		}
		out = append(out, v)
	}
	return out
}

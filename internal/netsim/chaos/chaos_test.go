package chaos

import (
	"fmt"
	"testing"
	"time"

	"p4auth/internal/controller"
	"p4auth/internal/core"
	"p4auth/internal/crypto"
	"p4auth/internal/obs"
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
	// BackToBack kills the controller, then crashes a switch, each
	// mid-operation with its own recovery and sweep: the compound failure.
	BackToBack Victim = "back-to-back"
)

// scenarios is Run's scenario table, in sweep order.
var scenarios = []struct {
	name Scenario
	// link arms the trigger on both ends of the s1<->s2 link, and a
	// crash hits a switch drawn from the stream; otherwise only s1's
	// channel counts and s1 crashes.
	link bool
	// op issues the operation the fault interrupts.
	op func(h *harness) error
}{
	{MidRollover, false, func(h *harness) error {
		_, err := h.c.LocalKeyUpdate("s1")
		return err
	}},
	{MidRegisterWrite, false, func(h *harness) error {
		v := h.rng.Uint64() % 0xFFFF
		_, err := h.c.WriteRegister("s1", "lat", 4, v)
		if err == nil {
			h.shadow["s1"][4] = v
		}
		return err
	}},
	{MidPortKeyInit, true, func(h *harness) error {
		_, err := h.c.PortKeyInit("s1", 1, "s2", 1)
		return err
	}},
}

// victims is Run's victim table: the fault of each round, in order.
var victims = []struct {
	name   Victim
	rounds []Victim
}{
	{KillController, []Victim{KillController}},
	{CrashSwitch, []Victim{CrashSwitch}},
	{BackToBack, []Victim{KillController, CrashSwitch}},
}

// Options fully determines a chaos run. Equal Options must produce equal
// traces.
type Options struct {
	// Seed drives every random choice (victim switch, written values,
	// rebuilt-controller key material).
	Seed     uint64
	Scenario Scenario
	Victim   Victim
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
	Recorder
	// CtlKills and SwCrashes count the faults injected.
	CtlKills, SwCrashes int
}

type harness struct {
	kernel
	o     Options
	res   *Result
	op    func(h *harness) error
	link  bool
	store *statestore.Mem
	// ob is the run's shared observer: controller generations come and
	// go, but the metrics registry and the audit trail persist across
	// them — the post-run audit sweep needs the whole story.
	ob     *obs.Observer
	c      *controller.Controller
	ctlGen uint64
	// the armed fault of the current round, and the switch a crash hits
	trig   *trigger
	target string
}

// Run executes one deterministic chaos run. It builds a two-switch
// fabric over the virtual-time simulator, schedules a controller kill or
// a switch-agent crash at an exact control-channel packet count inside a
// chosen protocol phase (key rollover, register write, port-key init),
// runs the recovery protocol, and sweeps the kernel invariants after
// every recovery. Specific to it:
//
//   - replay floors may reset only on a cold boot, which wipes the keys
//     WITH the floors, so old traffic cannot replay;
//   - keys reconverge: the interrupted operation retried after recovery
//     succeeds, as do rollovers, port-key updates, and authenticated
//     register round-trips on every switch;
//   - journaled register writes are applied exactly once or reported
//     failed — never duplicated, never silently lost.
func Run(o Options) (*Result, error) {
	if o.CrashAt < 1 {
		return nil, fmt.Errorf("chaos: CrashAt must be >= 1")
	}
	h := &harness{o: o}
	for _, sc := range scenarios {
		if sc.name == o.Scenario {
			h.op, h.link = sc.op, sc.link
		}
	}
	var rounds []Victim
	for _, v := range victims {
		if v.name == o.Victim {
			rounds = v.rounds
		}
	}
	if h.op == nil || rounds == nil {
		return nil, fmt.Errorf("chaos: unknown scenario %q or victim %q", o.Scenario, o.Victim)
	}
	fx, err := NewFixture("s1", "s2")
	if err != nil {
		return nil, err
	}
	h.res = &Result{Recorder: NewRecorder(fx.Sim)}
	h.kernel = kernel{&h.res.Recorder, fx, crypto.NewSeededRand(o.Seed ^ 0xC4A05AFE)}
	h.store, h.ob = statestore.NewMem(), obs.NewObserver(0)
	if err := h.newController(); err != nil {
		return nil, err
	}
	if err := h.baseline(); err != nil {
		return nil, err
	}
	for round, v := range rounds {
		h.Tracef("round %d: arming %s fault, scenario=%s crashAt=%d",
			round, v, o.Scenario, o.CrashAt)
		h.armFault(v)
		h.Tracef("armed op round %d: err=%v", round, h.op(h))
		h.trig.ensure()
		if err := h.recover(v); err != nil {
			return h.res, err
		}
		h.checkInvariants(fmt.Sprintf("round %d", round), v == CrashSwitch)
		// The operator's natural next step: re-issue the interrupted
		// operation, which must succeed on a recovered fabric.
		if err := h.op(h); err != nil {
			h.Violatef("retry of interrupted %s op after recovery round %d: %v",
				o.Scenario, round, err)
		} else {
			h.Tracef("retried %s op round %d: ok", o.Scenario, round)
		}
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
	c, err := h.NewController(h.o.Seed*1000003 + h.ctlGen)
	if err != nil {
		return err
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
	for _, n := range h.Names {
		for idx := uint32(0); idx < 3; idx++ {
			v := h.rng.Uint64() % 0xFFFF
			if _, err := h.c.WriteRegister(n, "lat", idx, v); err != nil {
				return fmt.Errorf("chaos: baseline write: %w", err)
			}
			h.shadow[n][idx] = v
		}
	}
	if h.o.WarmDevice {
		for _, n := range h.Names {
			if err := h.sw[n].SaveState(h.store, "dev/"+n, 1); err != nil {
				return err
			}
		}
	}
	h.floorsMonotone("baseline")
	h.Tracef("baseline established, warmDevice=%v", h.o.WarmDevice)
	h.forgerySweep("baseline", true)
	return nil
}

// armFault arms the trigger on the scenario's control channels and
// picks the switch a CrashSwitch fault will hit.
func (h *harness) armFault(v Victim) {
	h.target = "s1"
	channels := []string{"s1"}
	if h.link {
		channels = []string{"s1", "s2"}
		h.target = h.Names[intn(h.rng, len(h.Names))]
	}
	h.trig = armTrigger(h.c, h.o.CrashAt, func(where string) { h.fire(v, where) }, channels...)
}

// disarm clears all control taps (on a live controller).
func (h *harness) disarm() {
	for _, ch := range h.Names {
		_ = h.c.SetControlTaps(ch, nil, nil)
	}
}

// fire triggers the armed fault.
func (h *harness) fire(v Victim, where string) {
	if v == KillController {
		h.res.CtlKills++
		h.Tracef("fault: controller killed %s", where)
		h.c.Kill()
	} else {
		h.res.SwCrashes++
		h.Tracef("fault: switch %s crashed %s", h.target, where)
		h.sw[h.target].Crash()
	}
}

// recover runs the recovery protocol for the given victim.
func (h *harness) recover(v Victim) error {
	if v == KillController {
		if err := h.newController(); err != nil {
			return err
		}
		warm, err := h.c.RecoverAll()
		if err != nil {
			h.Violatef("RecoverAll: %v", err)
		}
		for _, n := range h.Names {
			h.Tracef("recovered controller: %s warm=%v seedUses=%d",
				n, warm[n], h.c.SeedUses(n))
			if warm[n] && h.c.SeedUses(n) != 0 {
				h.Violatef("%s: warm restart used K_seed %d times", n, h.c.SeedUses(n))
			}
		}
		return nil
	}
	// Switch crash: the (live) controller keeps its state; clear the
	// fault taps, reboot the agent, revive.
	h.disarm()
	target := h.target
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
	h.Tracef("rebooted %s warmDevice=%v: revive warm=%v err=%v", target, warm, revWarm, err)
	if err != nil {
		h.Violatef("ReviveSwitch(%s): %v", target, err)
	}
	if warm && !revWarm {
		h.Violatef("%s: warm device snapshot but revival fell back to re-seed", target)
	}
	if !warm {
		// Cold boot loses the port keys on this switch; re-establish the
		// link before the invariant sweep expects port traffic to work.
		if _, err := h.c.PortKeyInit("s1", 1, "s2", 1); err != nil {
			h.Violatef("PortKeyInit after cold boot of %s: %v", target, err)
		}
	}
	return nil
}

// checkInvariants is the post-recovery sweep; rebooted reports that the
// round's fault crashed a switch.
func (h *harness) checkInvariants(label string, rebooted bool) {
	for i, n := range h.noDanglingIntents(label, h.c) {
		h.Tracef("%s: %s journal entries=%d", label, h.Names[i], n)
	}
	// Register-write exactly-once: the interrupted write's slot holds
	// a value the harness actually asked for (its shadow, or — when the
	// journal replay re-drove or confirmed the in-flight value — that
	// value). It must never hold anything else.
	if h.o.Scenario == MidRegisterWrite && !rebooted {
		got, _, err := h.c.ReadRegister("s1", "lat", 4)
		if err != nil {
			h.Violatef("%s: read of journaled slot: %v", label, err)
		} else {
			h.Tracef("%s: journaled slot lat[4]=%d", label, got)
			h.shadow["s1"][4] = got // settled by recovery; adopt it
		}
	}
	h.floorsMonotone(label)
	h.forgerySweep(label, true)
	h.checkAudit(label)
}

// finalExercise proves full reconvergence: rollovers, port-key update,
// authenticated round-trips on every switch, port slots in agreement.
func (h *harness) finalExercise() {
	h.disarm()
	for _, n := range h.Names {
		if _, err := h.c.LocalKeyUpdate(n); err != nil {
			h.Violatef("final rollover on %s: %v", n, err)
		}
	}
	if _, err := h.c.PortKeyUpdate("s1", 1); err != nil {
		h.Violatef("final port-key update: %v", err)
	}
	for _, n := range h.Names {
		for idx := uint32(0); idx < 3; idx++ {
			v := h.rng.Uint64() % 0xFFFF
			if _, err := h.c.WriteRegister(n, "lat", idx, v); err != nil {
				h.Violatef("final write %s lat[%d]: %v", n, idx, err)
				continue
			}
			h.shadow[n][idx] = v
			got, _, err := h.c.ReadRegister(n, "lat", idx)
			if err != nil {
				h.Violatef("final read %s lat[%d]: %v", n, idx, err)
			} else if got != v {
				h.Violatef("final round-trip %s lat[%d]: wrote %d read %d", n, idx, v, got)
			}
		}
	}
	h.checkPortSync()
	h.forgerySweep("final", true)
	for _, n := range h.Names {
		h.Tracef("final: %s floors=%v shadow=%v", n, h.readFloors(n), h.shadow[n])
	}
}

// checkAudit reconciles the metrics against the audit trail (kernel
// sweep) and traces the counts this harness moves.
func (h *harness) checkAudit(label string) {
	h.AuditReconciled(label, h.ob)
	m := h.ob.Metrics
	h.Tracef("%s: audit reconciled: floor_bumps=%d write_dropped=%d events=%d", label,
		m.Counter("ctl.floor_bumps").Load(), m.Counter("ctl.write_dropped").Load(), h.ob.Audit.Len())
}

// checkPortSync requires both ends of the s1<->s2 link to agree on the
// port slot's install counter and active key.
func (h *harness) checkPortSync() {
	a, b := h.sw["s1"].Host.SW, h.sw["s2"].Host.SW
	verA, errA := a.RegisterRead(core.RegVer, 1)
	verB, errB := b.RegisterRead(core.RegVer, 1)
	if errA != nil || errB != nil {
		h.Violatef("port ver read: %v / %v", errA, errB)
		return
	}
	if verA != verB {
		h.Violatef("port install counters diverged: s1=%d s2=%d", verA, verB)
		return
	}
	reg := core.RegKeysV0
	if verA&1 == 1 {
		reg = core.RegKeysV1
	}
	keyA, _ := a.RegisterRead(reg, 1)
	keyB, _ := b.RegisterRead(reg, 1)
	if keyA != keyB || keyA == 0 {
		h.Violatef("port keys diverged at version %d: %#x vs %#x", verA, keyA, keyB)
	}
	h.Tracef("port slot in sync: ver=%d", verA)
}

// runFaulted is runClean plus the requirement that the run injected its
// fault.
func runFaulted(t *testing.T, o Options) *Result {
	t.Helper()
	res := runClean(t, Run, o)
	if res.CtlKills+res.SwCrashes == 0 {
		t.Fatal("run injected no fault")
	}
	return res
}

// sweep runs the full victim x crash-point x seed grid for one scenario.
// Each scenario accumulates at least 20 controller kills and 20 switch
// crashes across the grid (5 seeds x 2 crash points x 2 warm modes).
func sweep(t *testing.T, scenario Scenario, crashAts []int) {
	ctlKills, swCrashes := 0, 0
	for _, victim := range []Victim{KillController, CrashSwitch} {
		for _, warm := range []bool{true, false} {
			for _, at := range crashAts {
				for seed := uint64(1); seed <= 5; seed++ {
					o := Options{
						Seed: seed, Scenario: scenario, Victim: victim,
						CrashAt: at, WarmDevice: warm,
					}
					t.Run(fmt.Sprintf("%s/warm=%v/at=%d/seed=%d", victim, warm, at, seed),
						func(t *testing.T) {
							res := runFaulted(t, o)
							ctlKills += res.CtlKills
							swCrashes += res.SwCrashes
						})
				}
			}
		}
	}
	if ctlKills < 20 || swCrashes < 20 {
		t.Fatalf("scenario %s: only %d controller kills and %d switch crashes (want >= 20 each)",
			scenario, ctlKills, swCrashes)
	}
}

func TestChaosMidRollover(t *testing.T) {
	sweep(t, MidRollover, []int{1, 3})
}

func TestChaosMidRegisterWrite(t *testing.T) {
	sweep(t, MidRegisterWrite, []int{1, 2})
}

func TestChaosMidPortKeyInit(t *testing.T) {
	sweep(t, MidPortKeyInit, []int{2, 5})
}

// TestChaosBackToBack kills the controller mid-operation, recovers, then
// crashes a switch mid-operation and recovers again — the compound
// failure, for every scenario.
func TestChaosBackToBack(t *testing.T) {
	count := 0
	for _, sc := range scenarios {
		for _, warm := range []bool{true, false} {
			for seed := uint64(10); seed <= 13; seed++ {
				o := Options{
					Seed: seed, Scenario: sc.name, Victim: BackToBack,
					CrashAt: 2, WarmDevice: warm,
				}
				t.Run(fmt.Sprintf("%s/warm=%v/seed=%d", sc.name, warm, seed),
					func(t *testing.T) {
						res := runFaulted(t, o)
						if res.CtlKills != 1 || res.SwCrashes != 1 {
							t.Fatalf("want 1 kill + 1 crash, got %d + %d",
								res.CtlKills, res.SwCrashes)
						}
						count++
					})
			}
		}
	}
	if count < 20 {
		t.Fatalf("only %d back-to-back runs", count)
	}
}

// TestChaosDeterminism replays every scenario/victim pair at seed 42
// (the chaos/seed42 rows of the pinned-run table).
func TestChaosDeterminism(t *testing.T) {
	for _, sc := range scenarios {
		for _, v := range victims {
			o := Options{Seed: 42, Scenario: sc.name, Victim: v.name, CrashAt: 2, WarmDevice: true}
			t.Run(fmt.Sprintf("%s/%s", sc.name, v.name), func(t *testing.T) {
				assertSameTrace(t, Run, o)
			})
		}
	}
}

// TestChaosShort is the fixed-seed smoke subset wired into scripts/check.sh:
// one run per scenario/victim pair, fast enough for every CI invocation.
func TestChaosShort(t *testing.T) {
	for _, sc := range scenarios {
		for _, victim := range []Victim{KillController, CrashSwitch} {
			o := Options{
				Seed: 7, Scenario: sc.name, Victim: victim,
				CrashAt: 2, WarmDevice: true,
			}
			t.Run(fmt.Sprintf("%s/%s", sc.name, victim), func(t *testing.T) {
				runFaulted(t, o)
			})
		}
	}
}

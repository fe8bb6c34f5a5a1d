package chaos

// Group chaos: seeded controller-group runs (internal/ha.Group: 2..8
// ranked replicas over one CAS lease record; N=2 is the active/standby
// pair) against a fault-injecting store. The fleet is driven through
// per-switch shard queues (controller.ShardSet), rebound to the serving
// replica at every succession. The scenarios are the rows of
// groupScenarios.
//
// The kernel invariants (kernel.go) are swept at baseline, after every
// succession and at the end. On top of them, every scenario requires:
//
//   - no successor acquires while the incumbent's grant is unexpired
//     (one epoch, one writer), and the winner serves warm within the
//     failover budget;
//   - writes queued before the fault land through the winner;
//   - the epoch and ha.failovers both equal 1 + successions (aborted
//     ones included), and the first active ends fenced as deposed;
//   - fencing refused something, and writes landed.
//
// Single-threaded and scripted, like every harness in this package:
// concurrency is modeled through pre-op store hooks on the virtual
// clock, so every race has one deterministic interleaving per seed.

import (
	"errors"
	"fmt"
	"time"

	"p4auth/internal/controller"
	"p4auth/internal/crypto"
	"p4auth/internal/ha"
	"p4auth/internal/obs"
	"p4auth/internal/statestore"
)

// GroupScenario selects the group failure mode.
type GroupScenario string

const (
	// GroupRollingKill kills the active at a control packet inside a
	// local-key rollover, then each successor mid-promotion, until the
	// last rank takes over from tailed state: chained succession. At N=2
	// it is the pair's kill-active failover.
	GroupRollingKill GroupScenario = "rolling-kill"
	// GroupSplitBrain stalls the live active's renewals past the TTL (GC
	// pause, partition): rank 1 promotes at a higher epoch while the
	// deposed active keeps trying to write and renew.
	GroupSplitBrain GroupScenario = "split-brain"
	// GroupStoreOutage takes the shared store down mid-tenure: a blip
	// shorter than the bounded-staleness grace is ridden out on cached
	// evidence, an outage past it fences the active fail-safe before its
	// lease expires, and a successor is elected once the store returns.
	GroupStoreOutage GroupScenario = "store-outage"
	// GroupAcquireRace races every standby over one vacant lease: exactly
	// one wins, and the group resolves to it as incumbent.
	GroupAcquireRace GroupScenario = "acquire-race"
)

// GroupOptions fully determines a group chaos run. Equal options must
// produce equal traces.
type GroupOptions struct {
	// Seed drives every random choice.
	Seed uint64
	// Replicas is the group size (default 3, 2..8; acquire-race needs 3).
	Replicas int
	// Switches is the fleet size (default 16, minimum 2).
	Switches int
	// Scenario is the failure mode.
	Scenario GroupScenario
}

// GroupResult is the outcome of one group chaos run.
type GroupResult struct {
	Recorder
	// Replicas and Switches are the resolved sizes.
	Replicas, Switches int
	// Winner is the replica serving at the end of the run.
	Winner string
	// Epoch is the fencing epoch at the end of the run.
	Epoch uint64
	// Chained counts successors that died mid-promotion.
	Chained int
	// WaitOuts counts dead incumbents' grants waited out in full.
	WaitOuts uint64
	// FailoverTime spans the fault to the final winner serving.
	FailoverTime time.Duration
	// DegradedAdmits counts fence admissions on cached evidence.
	DegradedAdmits uint64
	// FencedAttempts counts refused sends+persists of fenced replicas.
	FencedAttempts uint64
	// Landed counts shard writes confirmed applied across the run.
	Landed int
	// WarmAll reports whether the final promotion was warm everywhere.
	WarmAll bool
}

// Group-run defaults and fixed parameters.
const (
	groupDefaultReplicas = 3
	groupMaxReplicas     = 8
	groupDefaultSwitches = 16
	// groupWindow is the shard pipeline window.
	groupWindow = 8
	// groupWrites is the per-switch load of one write wave.
	groupWrites = 3
	// groupCrashAt is the 1-based control packet of the rolling-kill
	// rollover at which the active dies.
	groupCrashAt = 3
	// groupTTL is the lease validity window; it bounds how long a dead
	// active goes unnoticed.
	groupTTL = 5 * time.Millisecond
	// groupFenceGrace is the bounded-staleness window and groupMaxSkew
	// the assumed clock divergence.
	groupFenceGrace = groupTTL / 4
	groupMaxSkew    = groupTTL / 16
)

// groupScenarios is RunGroup's scenario table: each failure mode, the
// fewest replicas it runs with, and its script, which returns the replica
// serving after the succession (nil if none does).
var groupScenarios = []struct {
	name        GroupScenario
	minReplicas int
	script      func(h *groupHarness) *ha.Replica
}{
	{GroupRollingKill, 2, (*groupHarness).rollingKill},
	{GroupSplitBrain, 2, (*groupHarness).splitBrain},
	{GroupStoreOutage, 2, (*groupHarness).storeOutage},
	// The rank-1 candidate races at least one standby.
	{GroupAcquireRace, 3, (*groupHarness).acquireRace},
}

type groupHarness struct {
	kernel
	o   GroupOptions
	res *GroupResult
	st  *statestore.FaultStore
	ob  *obs.Observer

	grp  *ha.Group
	reps []*ha.Replica
	ss   *controller.ShardSet
}

// RunGroup executes one deterministic controller-group chaos run.
func RunGroup(o GroupOptions) (*GroupResult, error) {
	var script func(h *groupHarness) *ha.Replica
	minReplicas := 0
	for _, sc := range groupScenarios {
		if sc.name == o.Scenario {
			script, minReplicas = sc.script, sc.minReplicas
		}
	}
	if script == nil {
		return nil, fmt.Errorf("chaos: unknown group scenario %q", o.Scenario)
	}
	if o.Replicas == 0 {
		o.Replicas = groupDefaultReplicas
	}
	if o.Switches == 0 {
		o.Switches = groupDefaultSwitches
	}
	if o.Replicas < minReplicas || o.Replicas > groupMaxReplicas || o.Switches < 2 {
		return nil, fmt.Errorf("chaos: %s run needs %d..%d replicas and >= 2 switches, got %d and %d",
			o.Scenario, minReplicas, groupMaxReplicas, o.Replicas, o.Switches)
	}
	names := make([]string, o.Switches)
	for i := range names {
		names[i] = fmt.Sprintf("s%02d", i)
	}
	fx, err := NewFixture(names...)
	if err != nil {
		return nil, err
	}
	res := &GroupResult{Recorder: NewRecorder(fx.Sim), Replicas: o.Replicas, Switches: o.Switches}
	h := &groupHarness{
		kernel: kernel{&res.Recorder, fx, crypto.NewSeededRand(o.Seed ^ 0x6E0C0DE5)},
		o:      o,
		res:    res,
		st:     statestore.NewFaultStore(statestore.NewMem(), fx.Sim, statestore.FaultConfig{Seed: o.Seed}),
		ob:     obs.NewObserver(0),
	}
	for i := 0; i < o.Replicas; i++ {
		r, err := h.newReplica(fmt.Sprintf("ctl-%d", i), uint64(i))
		if err != nil {
			return nil, err
		}
		h.reps = append(h.reps, r)
	}
	if h.grp, err = ha.NewGroup(h.Sim, h.reps...); err != nil {
		return nil, err
	}

	if err := h.baseline(); err != nil {
		return h.res, err
	}
	// Queue the next wave BEFORE the fault: these writes ride out the
	// succession in the shard queues and must land through the winner.
	h.load("in-flight")
	winner := script(h)
	if winner == nil {
		return h.res, fmt.Errorf("chaos: %s produced no serving replica (violations: %d)",
			o.Scenario, len(h.res.Violations))
	}
	h.aftermath(winner)
	h.finalChecks(winner)
	return h.res, nil
}

// newReplica builds one ranked replica over the shared fault store,
// simulator clock, and observer, with the whole fleet registered.
func (h *groupHarness) newReplica(name string, rank uint64) (*ha.Replica, error) {
	c, err := h.NewController(h.o.Seed*1000003 + 7001*rank + 101)
	if err != nil {
		return nil, err
	}
	return ha.NewReplica(ha.ReplicaConfig{
		Name:       name,
		Store:      h.st,
		Clock:      h.Sim,
		TTL:        groupTTL,
		Controller: c,
		Observer:   h.ob,
		FenceGrace: groupFenceGrace,
		MaxSkew:    groupMaxSkew,
	})
}

// failoverBudget bounds, in virtual time, the fault to the final winner
// serving: per rank that may take over, one TTL wait-out plus 2ms and a
// warm restart of 5ms per switch (resync and floor-heal retries). At N=2
// it is TTL + 2ms + 5ms per switch.
func (h *groupHarness) failoverBudget() time.Duration {
	succ := h.o.Replicas - 1
	return time.Duration(succ)*(groupTTL+2*time.Millisecond) +
		time.Duration(succ*len(h.Names))*5*time.Millisecond
}

// load queues one seeded write wave on every shard. Shadows are updated
// at submit time; drain verifies them once the wave has landed. Slots
// latEntries-2 (outage probe) and latEntries-1 (forgery) stay clear.
func (h *groupHarness) load(label string) {
	for _, n := range h.Names {
		for k := 0; k < groupWrites; k++ {
			idx := uint32(intn(h.rng, latEntries-2))
			v := h.rng.Uint64() % 0xFFFF
			if err := h.ss.Submit(n, controller.RegWrite{Register: "lat", Index: idx, Value: v}); err != nil {
				h.Violatef("%s: submit %s lat[%d]: %v", label, n, idx, err)
				return
			}
			h.shadow[n][idx] = v
		}
	}
	h.Tracef("%s: %d writes queued across %d shards", label, groupWrites*len(h.Names), len(h.Names))
}

// drain flushes every shard queue through the bound controller and
// verifies the fleet against the shadow through c.
func (h *groupHarness) drain(label string, c *controller.Controller) {
	if err := h.ss.DrainSequential(); err != nil {
		h.Violatef("%s drain: %v", label, err)
	}
	h.shadowMatches(label, c)
}

// sampleActives asserts at most one replica passes its fence right now.
func (h *groupHarness) sampleActives(label string) {
	active, holders := h.AtMostOneActive(label, h.reps)
	h.Tracef("%s: %d replica(s) pass the fence%s", label, active, holders)
}

// takeoverRefused asserts the fencing guarantee: while the incumbent's
// grant is unexpired, rank 1 cannot acquire, whatever became of the
// incumbent.
func (h *groupHarness) takeoverRefused() {
	if _, err := h.reps[1].Activate(ha.CausePromoted); !errors.Is(err, ha.ErrLeaseHeld) {
		h.Violatef("takeover before lease expiry = %v, want ErrLeaseHeld", err)
	} else {
		h.Tracef("pre-expiry takeover refused: lease held")
	}
}

// baseline bootstraps rank 0, shards the fleet, lands the first wave,
// lets every standby tail, and probes the fence on a standby.
func (h *groupHarness) baseline() error {
	act, err := h.grp.Bootstrap()
	if err != nil {
		return fmt.Errorf("chaos: group bootstrap: %w", err)
	}
	if _, err := act.Controller().InitAllKeys(); err != nil {
		return fmt.Errorf("chaos: baseline key init: %w", err)
	}
	if h.ss, err = act.Controller().NewShardSet(h.Names, groupWindow); err != nil {
		return err
	}
	h.Tracef("baseline: %d replicas ranked, %d switches sharded, window=%d ttl=%v grace=%v skew=%v",
		h.o.Replicas, len(h.Names), groupWindow, groupTTL, groupFenceGrace, groupMaxSkew)

	h.load("baseline")
	h.drain("baseline", act.Controller())
	tailed, err := h.grp.TailStandbys()
	if err != nil {
		return fmt.Errorf("chaos: standby tail: %w", err)
	}
	if tailed < (h.o.Replicas-1)*len(h.Names) {
		h.Violatef("standbys tailed %d records, want >= %d", tailed, (h.o.Replicas-1)*len(h.Names))
	}
	h.Tracef("baseline: standbys tailed %d records", tailed)

	if _, err := h.reps[1].Controller().WriteRegister(h.Names[0], "lat", 0, 1); !errors.Is(err, controller.ErrFenced) {
		h.Violatef("fenced standby write = %v, want ErrFenced", err)
	} else {
		h.Tracef("baseline: standby write refused by fence (%s)", ha.FenceCause(err))
	}
	h.floorsMonotone("baseline")
	h.forgerySweep("baseline", false)
	h.sampleActives("baseline")
	return nil
}

// rollingKill: kill the active at a control packet inside a local-key
// rollover, then each successor mid-promotion (via a lease-CAS counting
// hook), leaving only the last rank to finish. The chain depth, epochs,
// and wait-outs are all deterministic functions of the group size.
func (h *groupHarness) rollingKill() *ha.Replica {
	act := h.reps[0]
	target := h.Names[intn(h.rng, len(h.Names))]
	faultAt := h.Sim.Now()
	trig := armTrigger(act.Controller(), groupCrashAt, func(where string) {
		h.Tracef("fault: active %s killed %s", act.Name(), where)
		act.Controller().Kill()
	}, target)
	_, err := act.Controller().LocalKeyUpdate(target)
	h.Tracef("armed rollover on %s: err=%v", target, err)
	trig.ensure()
	h.takeoverRefused()

	// Each successor k dies at its first post-acquire renewal — lease CAS
	// number 2k counting from the election start (odd CASes are acquires,
	// even ones renewals, while the chain is rolling).
	midKills := h.o.Replicas - 2
	cas := 0
	h.st.SetHook(func(op statestore.Op, key string) {
		if op != statestore.OpCAS || key != statestore.LeaseKey {
			return
		}
		cas++
		if k := cas / 2; cas%2 == 0 && k <= midKills && !h.reps[k].Controller().Killed() {
			h.reps[k].Controller().Kill()
			h.Tracef("fault: successor %s killed mid-promotion (lease CAS %d)", h.reps[k].Name(), cas)
		}
	})
	el, err := h.grp.Elect(ha.CauseElected)
	h.st.SetHook(nil)
	if err != nil {
		h.Violatef("rolling-kill election: %v", err)
		return nil
	}
	if want := h.reps[h.o.Replicas-1]; el.Winner != want {
		h.Violatef("rolling-kill winner = %s, want %s (last rank)", el.Winner.Name(), want.Name())
	}
	if el.Chained != midKills {
		h.Violatef("chained promotions = %d, want %d", el.Chained, midKills)
	}
	if wo := h.ob.Metrics.Counter("ha.election_waitouts").Load(); wo < uint64(midKills+1) {
		h.Violatef("wait-outs = %d, want >= %d (every dead grant waited out in full)", wo, midKills+1)
	}
	return h.served(el.Winner, el.Warm, el.Chained, faultAt)
}

// splitBrain: the active completes a rollover, then stalls — no
// renewals until after the TTL, nothing killed. Rank 1 detects the lapse
// and promotes on its own: Elect would re-elect the live rank 0 as
// incumbent, and a standby watching only the record cannot tell a stall
// from a death.
func (h *groupHarness) splitBrain() *ha.Replica {
	act, succ := h.reps[0], h.reps[1]
	target := h.Names[intn(h.rng, len(h.Names))]
	faultAt := h.Sim.Now()
	if _, err := act.Controller().LocalKeyUpdate(target); err != nil {
		h.Violatef("pre-stall rollover on %s: %v", target, err)
	}
	h.Tracef("fault: active %s stalls after rollover on %s (no renewals)", act.Name(), target)
	h.takeoverRefused()

	// Detection is lease expiry: advance the virtual clock past the TTL.
	h.Sim.Advance(groupTTL + time.Millisecond)
	if _, err := succ.TailOnce(); err != nil {
		h.Violatef("pre-promotion tail: %v", err)
	}
	warm, _, err := succ.Promote(ha.CausePromoted)
	if err != nil {
		h.Violatef("split-brain promote: %v", err)
		return nil
	}
	return h.served(succ, warm, 0, faultAt)
}

// storeOutage: a blip shorter than the grace is survived on cached
// evidence; an outage past the grace fences the active fail-safe BEFORE
// lease expiry; the wedged node fail-stops and a successor is elected
// once the store returns.
func (h *groupHarness) storeOutage() *ha.Replica {
	act := h.grp.Active()
	if err := act.Renew(); err != nil {
		h.Violatef("pre-blip renew: %v", err)
		return nil
	}
	h.takeoverRefused()

	// Phase 1: blip < grace. Signed reads keep flowing on the degraded
	// fence (writes would need the journal, which IS the store — reads
	// are the operation a store blip must not take down).
	blipFrom := h.Sim.Now() + 50*time.Microsecond
	blipTo := blipFrom + groupFenceGrace/2
	if err := h.st.ScheduleOutage(blipFrom, blipTo); err != nil {
		h.Violatef("blip schedule: %v", err)
		return nil
	}
	h.Sim.Advance(100 * time.Microsecond)
	probe := h.Names[intn(h.rng, len(h.Names))]
	if _, _, err := act.Controller().ReadRegister(probe, "lat", 0); err != nil {
		h.Violatef("read during blip (inside grace) = %v, want served on cached grant", err)
	} else {
		h.Tracef("blip: read on %s served on cached evidence", probe)
	}
	if !act.InDegraded() {
		h.Violatef("active not in degraded mode during blip")
	}
	h.Sim.Advance(blipTo - h.Sim.Now() + 100*time.Microsecond)
	if _, _, err := act.Controller().ReadRegister(probe, "lat", 0); err != nil {
		h.Violatef("read after blip = %v", err)
	}
	if act.InDegraded() {
		h.Violatef("active still degraded after the store recovered")
	}
	m := h.ob.Metrics
	admits, exits := m.Counter("ha.degraded_admits").Load(), m.Counter("ha.degraded_exits").Load()
	if admits == 0 || exits == 0 {
		h.Violatef("blip produced %d degraded admissions and %d exits, want both > 0", admits, exits)
	}
	h.Tracef("blip survived: admits=%d exits=%d", admits, exits)

	// Phase 2: outage > grace. The fence must exhaust and refuse BEFORE
	// the lease itself expires — fail-safe, never fail-open.
	if err := act.Renew(); err != nil {
		h.Violatef("pre-outage renew: %v", err)
		return nil
	}
	renewedAt := h.Sim.Now()
	outFrom := h.Sim.Now() + 50*time.Microsecond
	outTo := outFrom + groupTTL + 2*time.Millisecond
	if err := h.st.ScheduleOutage(outFrom, outTo); err != nil {
		h.Violatef("outage schedule: %v", err)
		return nil
	}
	// Inside the grace the active still serves — this is the episode the
	// exhaustion below ends.
	h.Sim.Advance(200 * time.Microsecond)
	if _, _, err := act.Controller().ReadRegister(probe, "lat", 0); err != nil {
		h.Violatef("read inside outage grace = %v, want served on cached grant", err)
	}
	h.Sim.Advance(renewedAt + groupFenceGrace + 200*time.Microsecond - h.Sim.Now())
	if h.Sim.Now() >= renewedAt+groupTTL {
		h.Violatef("harness bug: grace probe past lease expiry")
	}
	if _, _, err := act.Controller().ReadRegister(probe, "lat", 0); !errors.Is(err, controller.ErrFenced) {
		h.Violatef("read past grace = %v, want ErrFenced (fail-safe before expiry)", err)
	} else {
		h.Tracef("outage past grace: active self-fenced (%s) with lease still unexpired", ha.FenceCause(err))
	}
	if x := m.Counter("ha.degraded_exhausted").Load(); x == 0 {
		h.Violatef("long outage produced no grace exhaustion")
	}
	// A write attempt by the self-fenced active must die without a trace.
	if _, err := act.Controller().WriteRegister(h.Names[0], "lat", latEntries-2, 0x666); err == nil {
		h.Violatef("write by self-fenced active succeeded during outage")
	}

	// The wedged node fail-stops; the store comes back; succession.
	faultAt := h.Sim.Now()
	act.Controller().Kill()
	h.Tracef("fault: self-fenced active %s fail-stops", act.Name())
	h.Sim.Advance(outTo - h.Sim.Now() + 100*time.Microsecond)
	el, err := h.grp.Elect(ha.CauseElected)
	if err != nil {
		h.Violatef("post-outage election: %v", err)
		return nil
	}
	if el.Winner != h.reps[1] || el.Chained != 0 {
		h.Violatef("post-outage winner = %s chained %d, want %s chained 0",
			el.Winner.Name(), el.Chained, h.reps[1].Name())
	}
	// The 0x666 probe slot must hold anything but the fenced value.
	if v, _, err := el.Winner.Controller().ReadRegister(h.Names[0], "lat", latEntries-2); err != nil {
		h.Violatef("outage probe read-back: %v", err)
	} else if v == 0x666 {
		h.Violatef("FENCED WRITE LANDED: outage probe slot = 0x666")
	}
	return h.served(el.Winner, el.Warm, el.Chained, faultAt)
}

// acquireRace: the lease falls vacant and every standby from rank 2 down
// races the rank-1 candidate over the CAS record, modeled by a one-shot
// pre-CAS hook. Exactly one acquirer may win; the group resolves to that
// winner as the incumbent.
func (h *groupHarness) acquireRace() *ha.Replica {
	faultAt := h.Sim.Now()
	h.reps[0].Controller().Kill()
	h.Tracef("fault: active %s killed", h.reps[0].Name())
	h.takeoverRefused()

	var winner *ha.Replica
	var raceWarm map[string]bool
	losers := 0
	armed := false
	h.st.SetHook(func(op statestore.Op, key string) {
		if armed || op != statestore.OpCAS || key != statestore.LeaseKey {
			return
		}
		// Fire once, on the rank-1 candidate's acquire CAS; the racers'
		// own CASes below re-enter the hook and pass through.
		armed = true
		for _, rv := range h.reps[2:] {
			if _, err := rv.TailOnce(); err != nil {
				h.Violatef("racer %s tail: %v", rv.Name(), err)
				continue
			}
			warm, _, err := rv.Promote(ha.CausePromoted)
			switch {
			case err == nil:
				if winner != nil {
					h.Violatef("TWO RACE WINNERS: %s and %s", winner.Name(), rv.Name())
				}
				winner = rv
				raceWarm = warm
				h.Tracef("race: %s acquired and promoted at epoch %d", rv.Name(), rv.Epoch())
			case errors.Is(err, ha.ErrLeaseHeld), errors.Is(err, ha.ErrLeaseRaced):
				losers++
				h.Tracef("race: %s lost (%v)", rv.Name(), errors.Unwrap(err))
			default:
				h.Violatef("racer %s promote = %v, want win or clean loss", rv.Name(), err)
			}
		}
	})
	el, err := h.grp.Elect(ha.CauseElected)
	h.st.SetHook(nil)
	if err != nil {
		h.Violatef("race election: %v", err)
		return nil
	}
	if !armed {
		h.Violatef("race hook never fired; the scenario exercised nothing")
	}
	if winner != h.reps[2] {
		h.Violatef("race winner = %v, want %s (first racer, deterministic)", winner, h.reps[2].Name())
		return nil
	}
	if wantLosers := h.o.Replicas - 3; losers != wantLosers {
		h.Violatef("race losers = %d, want %d", losers, wantLosers)
	}
	// The group resolved the raced election to the incumbent winner: the
	// rank-1 candidate lost its swap and nobody was double-granted.
	if !el.Incumbent || el.Winner != winner {
		h.Violatef("election = winner %s incumbent %v, want incumbent %s",
			el.Winner.Name(), el.Incumbent, winner.Name())
	}
	if err := h.reps[1].Fence(); !errors.Is(err, controller.ErrFenced) {
		h.Violatef("raced-out candidate %s passes the fence", h.reps[1].Name())
	}
	h.Tracef("race resolved: %d loser(s)", losers)
	return h.served(winner, raceWarm, 0, faultAt)
}

// served closes a succession: the winner serving within the failover
// budget of faultAt, every switch recovered from tailed state (warm, with
// zero K_seed uses), and at most one replica passing its fence.
func (h *groupHarness) served(w *ha.Replica, warm map[string]bool, chained int, faultAt time.Duration) *ha.Replica {
	h.res.FailoverTime = h.Sim.Now() - faultAt
	h.res.Chained = chained
	if h.res.FailoverTime > h.failoverBudget() {
		h.Violatef("failover took %v, budget %v", h.res.FailoverTime, h.failoverBudget())
	}
	h.res.WarmAll = true
	for _, n := range h.Names {
		if !warm[n] {
			h.res.WarmAll = false
			h.Violatef("%s: promotion recovered cold (fell back to K_seed)", n)
		}
		if u := w.Controller().SeedUses(n); u != 0 {
			h.Violatef("%s: promotion used K_seed %d times", n, u)
		}
	}
	h.Tracef("%s serving at epoch %d: chained=%d failover=%v (budget %v)",
		w.Name(), w.Epoch(), chained, h.res.FailoverTime, h.failoverBudget())
	h.sampleActives("post-failover")
	return w
}

// aftermath hands the shard set to the winner and drains the in-flight
// wave through it, retries rollovers under the new epoch, drives every
// non-winner into the fence, and lands a final wave.
func (h *groupHarness) aftermath(w *ha.Replica) {
	h.ss.Rebind(w.Controller())
	h.Tracef("shard set rebound to %s", w.Name())
	h.drain("post-failover", w.Controller())

	// The interrupted (or stalled-past) rollover retried through the
	// winner must succeed: keys reconverge under the new epoch.
	for _, n := range []string{h.Names[0], h.Names[len(h.Names)-1]} {
		if _, err := w.Controller().LocalKeyUpdate(n); err != nil {
			h.Violatef("post-failover rollover on %s: %v", n, err)
		}
	}
	h.Tracef("post-failover rollovers ok")

	// Every write a non-winner attempts is refused — by the fence where
	// it is alive (split-brain's deposed active), as dead otherwise — and
	// leaves the slot at its shadow, verified just above.
	for _, r := range h.reps {
		if r == w {
			continue
		}
		n := h.Names[intn(h.rng, len(h.Names))]
		idx := uint32(intn(h.rng, latEntries-2))
		h.deposedWriteRefused("deposed "+r.Name()+" write", r.Controller(), w.Controller(),
			n, idx, h.shadow[n][idx], 0x777)
	}
	if cause := ha.FenceCause(h.reps[0].Fence()); cause != ha.CauseDeposed {
		h.Violatef("first active fence cause = %q, want %q", cause, ha.CauseDeposed)
	}
	if h.o.Scenario == GroupSplitBrain {
		// A renewal attempt must fail too — and once the replica has seen
		// its own deposition, it drops the stale grant for good.
		if err := h.reps[0].Renew(); !errors.Is(err, ha.ErrDeposed) && !errors.Is(err, ha.ErrNotActive) {
			h.Violatef("deposed renew = %v, want ErrDeposed", err)
		} else {
			h.Tracef("deposed renewal refused, stale grant dropped")
		}
	}

	h.load("final")
	h.drain("final", w.Controller())
	h.forgerySweep("final", false)
}

// finalChecks is the post-run invariant sweep: floors monotone, no
// dangling intents, audit reconciled exactly, one grant per succession.
func (h *groupHarness) finalChecks(w *ha.Replica) {
	h.floorsMonotone("final")
	h.noDanglingIntents("final", w.Controller())
	h.AuditReconciled("final", h.ob)
	m := h.ob.Metrics
	h.res.FencedAttempts = m.Counter("ha.fenced_writes").Load() + m.Counter("ha.fenced_persists").Load()
	if h.res.FencedAttempts == 0 {
		h.Violatef("run produced no fencing refusals — the scenario did not bite")
	}
	// Bootstrap, then one grant per succession: the survivor's and one
	// per successor that died mid-promotion.
	grants := uint64(2 + h.res.Chained)
	if got := w.Epoch(); got != grants {
		h.Violatef("winner epoch = %d, want %d", got, grants)
	}
	if got := m.Counter("ha.failovers").Load(); got != grants {
		h.Violatef("failovers = %d, want %d (bootstrap + successions)", got, grants)
	}
	tot, _ := h.ss.FleetTotals()
	h.res.Landed = tot.Landed
	if tot.Landed == 0 {
		h.Violatef("no shard writes landed at all")
	}

	h.res.Winner = w.Name()
	h.res.Epoch = w.Epoch()
	h.res.WaitOuts = m.Counter("ha.election_waitouts").Load()
	h.res.DegradedAdmits = m.Counter("ha.degraded_admits").Load()
	h.Tracef("done: winner=%s epoch=%d chained=%d waitouts=%d degraded_admits=%d fenced=%d landed=%d failed=%d violations=%d",
		h.res.Winner, h.res.Epoch, h.res.Chained, h.res.WaitOuts,
		h.res.DegradedAdmits, h.res.FencedAttempts, tot.Landed, tot.Failed, len(h.res.Violations))
}

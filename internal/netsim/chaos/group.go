package chaos

// Group chaos: seeded N-replica controller-group runs (internal/ha.Group)
// against a fault-injecting store. Where RunHA exercises the 2-replica
// pair through one failover, RunGroup exercises the ranked group through
// the failure modes that only exist past N=2:
//
//   - rolling-kill: the active dies; the rank-1 successor dies
//     mid-promotion (and at N=5 so do ranks 2 and 3); each successor
//     takes over from tailed state at the next epoch — chained
//     succession with the chain depth recorded and audited;
//   - store-outage: the active's store goes dark mid-tenure. A blip
//     shorter than the bounded-staleness grace is ridden out on cached
//     evidence (degraded admission, observable); an outage past the
//     grace fences the active fail-safe BEFORE its lease even expires,
//     and a successor is elected once the store returns;
//   - acquire-race: multiple standbys race one election over the CAS
//     record; exactly one wins, every loser sees a held lease or a lost
//     swap, and the group resolves to the winner as incumbent.
//
// The kernel invariants (kernel.go) are swept at baseline, after every
// succession and at the end; specific to this harness are the expected
// winner, epoch, chain depth and wait-out count of each scenario.
//
// Single-threaded and scripted, like every harness in this package:
// concurrency is modeled through pre-op store hooks on the virtual
// clock, so every race has one deterministic interleaving per seed.

import (
	"errors"
	"fmt"
	"time"

	"p4auth/internal/controller"
	"p4auth/internal/ha"
	"p4auth/internal/obs"
	"p4auth/internal/statestore"
)

// GroupScenario selects the group failure mode.
type GroupScenario string

const (
	// GroupRollingKill kills the active, then each successor
	// mid-promotion, until the last rank survives: chained succession.
	GroupRollingKill GroupScenario = "rolling-kill"
	// GroupStoreOutage takes the shared store down mid-tenure: a short
	// blip is survived on the bounded-staleness fence, a long outage
	// fences the active fail-safe and a successor is elected after.
	GroupStoreOutage GroupScenario = "store-outage"
	// GroupAcquireRace races every standby over one vacant lease;
	// exactly one may win.
	GroupAcquireRace GroupScenario = "acquire-race"
)

// GroupOptions fully determines a group chaos run. Equal options must
// produce equal traces.
type GroupOptions struct {
	// Seed drives every random choice.
	Seed uint64
	// Replicas is the group size (default 3, minimum 3, maximum 8).
	Replicas int
	// Switches is the fleet size (default 16, minimum 2).
	Switches int
	// WritesPerSwitch is the per-wave write load (default 3).
	WritesPerSwitch int
	// TTL is the lease validity window in virtual time (default 5ms).
	TTL time.Duration
	// FenceGrace is the bounded-staleness window (default TTL/4).
	FenceGrace time.Duration
	// MaxSkew is the assumed clock divergence (default TTL/16).
	MaxSkew time.Duration
	// Scenario is the failure mode.
	Scenario GroupScenario
	// FailoverBudget bounds, in virtual time, the span from the fault to
	// the final winner serving. The default scales with group and fleet
	// size: each dead incumbent costs one TTL wait-out plus warm-restart
	// time linear in the fleet.
	FailoverBudget time.Duration
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
	// Landed counts writes confirmed applied across the run.
	Landed int
	// WarmAll reports whether the final promotion was warm everywhere.
	WarmAll bool
}

// Group-run defaults.
const (
	groupDefaultReplicas = 3
	groupMaxReplicas     = 8
	groupDefaultSwitches = 16
	groupDefaultWrites   = 3
	groupDefaultTTL      = 5 * time.Millisecond
)

type groupHarness struct {
	kernel
	o   GroupOptions
	res *GroupResult
	st  *statestore.FaultStore
	ob  *obs.Observer

	grp  *ha.Group
	reps []*ha.Replica
}

// RunGroup executes one deterministic N-replica group chaos run.
func RunGroup(o GroupOptions) (*GroupResult, error) {
	switch o.Scenario {
	case GroupRollingKill, GroupStoreOutage, GroupAcquireRace:
	default:
		return nil, fmt.Errorf("chaos: unknown group scenario %q", o.Scenario)
	}
	if o.Replicas == 0 {
		o.Replicas = groupDefaultReplicas
	}
	if o.Replicas < 3 || o.Replicas > groupMaxReplicas {
		return nil, fmt.Errorf("chaos: group run needs 3..%d replicas, got %d", groupMaxReplicas, o.Replicas)
	}
	if o.Switches == 0 {
		o.Switches = groupDefaultSwitches
	}
	if o.Switches < 2 {
		return nil, fmt.Errorf("chaos: group run needs >= 2 switches, got %d", o.Switches)
	}
	if o.WritesPerSwitch == 0 {
		o.WritesPerSwitch = groupDefaultWrites
	}
	if o.TTL == 0 {
		o.TTL = groupDefaultTTL
	}
	if o.FenceGrace == 0 {
		o.FenceGrace = o.TTL / 4
	}
	if o.MaxSkew == 0 {
		o.MaxSkew = o.TTL / 16
	}
	if o.FailoverBudget == 0 {
		o.FailoverBudget = time.Duration(o.Replicas-1)*(o.TTL+2*time.Millisecond) +
			time.Duration((o.Replicas-1)*o.Switches)*5*time.Millisecond
	}
	fx, err := NewFixture(FleetNames(o.Switches)...)
	if err != nil {
		return nil, err
	}
	res := &GroupResult{Recorder: NewRecorder(fx.Sim), Replicas: o.Replicas, Switches: o.Switches, WarmAll: true}
	h := &groupHarness{
		kernel: kernel{&res.Recorder, fx, NewStream(o.Seed ^ 0x6E0C0DE5)},
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
	grp, err := ha.NewGroup(h.Sim, h.reps...)
	if err != nil {
		return nil, err
	}
	h.grp = grp

	if err := h.baseline(); err != nil {
		return h.res, err
	}
	var winner *ha.Replica
	switch o.Scenario {
	case GroupRollingKill:
		winner = h.rollingKill()
	case GroupStoreOutage:
		winner = h.storeOutage()
	case GroupAcquireRace:
		winner = h.acquireRace()
	}
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
		TTL:        h.o.TTL,
		Controller: c,
		Observer:   h.ob,
		FenceGrace: h.o.FenceGrace,
		MaxSkew:    h.o.MaxSkew,
	})
}

// load lands one seeded write wave through the given controller,
// tracking shadows and the landed count. Slots latEntries-2 (outage
// probe) and latEntries-1 (forgery) stay clear.
func (h *groupHarness) load(label string, c *controller.Controller) {
	for _, n := range h.Names {
		for k := 0; k < h.o.WritesPerSwitch; k++ {
			idx := uint32(h.rng.Intn(latEntries - 2))
			v := h.rng.Next() % 0xFFFF
			if _, err := c.WriteRegister(n, "lat", idx, v); err != nil {
				h.Violatef("%s: write %s lat[%d]: %v", label, n, idx, err)
				return
			}
			h.shadow[n][idx] = v
			h.res.Landed++
		}
	}
	h.Tracef("%s: %d writes landed across %d switches", label,
		h.o.WritesPerSwitch*len(h.Names), len(h.Names))
}

// sampleActives asserts at most one replica passes its fence right now.
func (h *groupHarness) sampleActives(label string) {
	active, holders := h.AtMostOneActive(label, h.reps)
	h.Tracef("%s: %d replica(s) pass the fence%s", label, active, holders)
}

// baseline bootstraps rank 0, lands the first wave, lets every standby
// tail, and probes the fence on a standby.
func (h *groupHarness) baseline() error {
	act, err := h.grp.Bootstrap()
	if err != nil {
		return fmt.Errorf("chaos: group bootstrap: %w", err)
	}
	if _, err := act.Controller().InitAllKeys(); err != nil {
		return fmt.Errorf("chaos: baseline key init: %w", err)
	}
	h.Tracef("baseline: %d replicas ranked, %d switches, ttl=%v grace=%v skew=%v",
		h.o.Replicas, len(h.Names), h.o.TTL, h.o.FenceGrace, h.o.MaxSkew)

	h.load("baseline", act.Controller())
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
	}
	h.floorsMonotone("baseline")
	h.forgerySweep("baseline", false)
	h.sampleActives("baseline")
	return nil
}

// rollingKill: kill the active, then each successor mid-promotion (via a
// lease-CAS counting hook), leaving only the last rank to finish. The
// chain depth, epochs, and wait-outs are all deterministic functions of
// the group size.
func (h *groupHarness) rollingKill() *ha.Replica {
	faultAt := h.Sim.Now()
	h.reps[0].Controller().Kill()
	h.Tracef("fault: active %s killed", h.reps[0].Name())

	// The fencing guarantee: no successor can acquire pre-expiry.
	if _, err := h.reps[1].Activate(ha.CausePromoted); !errors.Is(err, ha.ErrLeaseHeld) {
		h.Violatef("takeover before lease expiry = %v, want ErrLeaseHeld", err)
	} else {
		h.Tracef("pre-expiry takeover refused: lease held")
	}

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
		if cas%2 == 0 {
			if k := cas / 2; k <= midKills && !h.reps[k].Controller().Killed() {
				h.reps[k].Controller().Kill()
				h.Tracef("fault: successor %s killed mid-promotion (lease CAS %d)", h.reps[k].Name(), cas)
			}
		}
	})
	el, err := h.grp.Elect(ha.CauseElected)
	h.st.SetHook(nil)
	if err != nil {
		h.Violatef("rolling-kill election: %v", err)
		return nil
	}
	h.res.FailoverTime = h.Sim.Now() - faultAt
	h.res.Chained = el.Chained

	want := h.reps[h.o.Replicas-1]
	if el.Winner != want {
		h.Violatef("rolling-kill winner = %s, want %s (last rank)", el.Winner.Name(), want.Name())
	}
	if el.Chained != midKills {
		h.Violatef("chained promotions = %d, want %d", el.Chained, midKills)
	}
	// Epochs: bootstrap 1, then one per successor (aborted or not).
	if got, wantE := el.Winner.Epoch(), uint64(h.o.Replicas); got != wantE {
		h.Violatef("winner epoch = %d, want %d", got, wantE)
	}
	h.checkWarm(el.Winner, el.Warm)
	h.Tracef("elected %s at epoch %d: chained=%d failover=%v (budget %v)",
		el.Winner.Name(), el.Winner.Epoch(), el.Chained, h.res.FailoverTime, h.o.FailoverBudget)
	if wo := h.ob.Metrics.Counter("ha.election_waitouts").Load(); wo < uint64(midKills+1) {
		h.Violatef("wait-outs = %d, want >= %d (every dead grant waited out in full)", wo, midKills+1)
	}
	h.sampleActives("post-election")
	return el.Winner
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

	// Phase 1: blip < grace. Signed reads keep flowing on the degraded
	// fence (writes would need the journal, which IS the store — reads
	// are the operation a store blip must not take down).
	blipFrom := h.Sim.Now() + 50*time.Microsecond
	blipTo := blipFrom + h.o.FenceGrace/2
	if err := h.st.ScheduleOutage(blipFrom, blipTo); err != nil {
		h.Violatef("blip schedule: %v", err)
		return nil
	}
	h.Sim.Advance(100 * time.Microsecond)
	probe := h.Names[h.rng.Intn(len(h.Names))]
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
	if a := m.Counter("ha.degraded_admits").Load(); a == 0 {
		h.Violatef("blip produced no degraded admissions")
	}
	if x := m.Counter("ha.degraded_exits").Load(); x == 0 {
		h.Violatef("blip recovery produced no degraded exit")
	}
	h.Tracef("blip survived: admits=%d exits=%d", m.Counter("ha.degraded_admits").Load(),
		m.Counter("ha.degraded_exits").Load())

	// Phase 2: outage > grace. The fence must exhaust and refuse BEFORE
	// the lease itself expires — fail-safe, never fail-open.
	if err := act.Renew(); err != nil {
		h.Violatef("pre-outage renew: %v", err)
		return nil
	}
	renewedAt := h.Sim.Now()
	outFrom := h.Sim.Now() + 50*time.Microsecond
	outTo := outFrom + h.o.TTL + 2*time.Millisecond
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
	h.Sim.Advance(renewedAt + h.o.FenceGrace + 200*time.Microsecond - h.Sim.Now())
	if h.Sim.Now() >= renewedAt+h.o.TTL {
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
	h.res.FailoverTime = h.Sim.Now() - faultAt
	h.res.Chained = el.Chained
	if el.Winner != h.reps[1] || el.Chained != 0 {
		h.Violatef("post-outage winner = %s chained %d, want %s chained 0",
			el.Winner.Name(), el.Chained, h.reps[1].Name())
	}
	if got := el.Winner.Epoch(); got != 2 {
		h.Violatef("post-outage epoch = %d, want 2", got)
	}
	h.checkWarm(el.Winner, el.Warm)
	h.Tracef("elected %s at epoch %d after outage: failover=%v (budget %v)",
		el.Winner.Name(), el.Winner.Epoch(), h.res.FailoverTime, h.o.FailoverBudget)
	// The 0x666 probe slot must hold anything but the fenced value.
	if v, _, err := el.Winner.Controller().ReadRegister(h.Names[0], "lat", latEntries-2); err != nil {
		h.Violatef("outage probe read-back: %v", err)
	} else if v == 0x666 {
		h.Violatef("FENCED WRITE LANDED: outage probe slot = 0x666")
	}
	h.sampleActives("post-election")
	return el.Winner
}

// acquireRace: the lease falls vacant and every standby from rank 2 down
// races the rank-1 candidate over the CAS record, modeled by a one-shot
// pre-CAS hook. Exactly one acquirer may win; the group resolves to that
// winner as the incumbent.
func (h *groupHarness) acquireRace() *ha.Replica {
	faultAt := h.Sim.Now()
	h.reps[0].Controller().Kill()
	h.Tracef("fault: active %s killed", h.reps[0].Name())

	var winner *ha.Replica
	var raceWarm map[string]bool
	losers := 0
	armed, inHook := false, false
	h.st.SetHook(func(op statestore.Op, key string) {
		if inHook || armed || op != statestore.OpCAS || key != statestore.LeaseKey {
			return
		}
		armed = true // fire once: on the rank-1 candidate's acquire CAS
		inHook = true
		defer func() { inHook = false }()
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
	h.res.FailoverTime = h.Sim.Now() - faultAt

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
	if got := winner.Epoch(); got != 2 {
		h.Violatef("race winner epoch = %d, want 2", got)
	}
	if err := h.reps[1].Fence(); !errors.Is(err, controller.ErrFenced) {
		h.Violatef("raced-out candidate %s passes the fence", h.reps[1].Name())
	}
	h.checkWarm(winner, raceWarm)
	h.Tracef("race resolved: %s serving at epoch %d, %d loser(s), failover=%v",
		winner.Name(), winner.Epoch(), losers, h.res.FailoverTime)
	h.sampleActives("post-race")
	return winner
}

// checkWarm asserts the winner recovered every switch warm and inside the
// failover budget.
func (h *groupHarness) checkWarm(w *ha.Replica, warm map[string]bool) {
	h.res.WarmAll = h.promotedWarm(w.Controller(), warm, h.res.FailoverTime, h.o.FailoverBudget) && h.res.WarmAll
}

// aftermath probes every non-winner for fencing, lands a final wave
// through the winner, and verifies the fleet against the shadow.
func (h *groupHarness) aftermath(w *ha.Replica) {
	for _, r := range h.reps {
		if r == w {
			continue
		}
		n := h.Names[h.rng.Intn(len(h.Names))]
		idx := uint32(h.rng.Intn(latEntries - 2))
		before, _, rerr := w.Controller().ReadRegister(n, "lat", idx)
		if rerr != nil {
			h.Violatef("aftermath read %s lat[%d]: %v", n, idx, rerr)
			continue
		}
		h.deposedWriteRefused("deposed "+r.Name()+" write", r.Controller(), w.Controller(), n, idx, before, 0x777)
	}
	h.load("final", w.Controller())
	h.shadowMatches("final", w.Controller())
	h.forgerySweep("final", false)
}

// finalChecks is the post-run invariant sweep: floors monotone, no
// dangling intents, audit reconciled exactly.
func (h *groupHarness) finalChecks(w *ha.Replica) {
	h.floorsMonotone("final")
	h.noDanglingIntents("final", w.Controller())
	h.AuditReconciled("final", h.ob)
	m := h.ob.Metrics
	h.res.FencedAttempts = m.Counter("ha.fenced_writes").Load() + m.Counter("ha.fenced_persists").Load()
	if h.res.FencedAttempts == 0 {
		h.Violatef("run produced no fencing refusals — the scenario did not bite")
	}

	h.res.Winner = w.Name()
	h.res.Epoch = w.Epoch()
	h.res.WaitOuts = m.Counter("ha.election_waitouts").Load()
	h.res.DegradedAdmits = m.Counter("ha.degraded_admits").Load()
	h.Tracef("done: winner=%s epoch=%d chained=%d waitouts=%d degraded_admits=%d fenced=%d landed=%d violations=%d",
		h.res.Winner, h.res.Epoch, h.res.Chained, h.res.WaitOuts,
		h.res.DegradedAdmits, h.res.FencedAttempts, h.res.Landed, len(h.res.Violations))
}

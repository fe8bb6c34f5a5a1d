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
// Invariants on every run: at most one replica passes its fence at any
// sampled instant; no forged write lands (before/during/after); no write
// of a fenced or dead replica reaches device state; replay floors stay
// monotone across every succession; audit reconciles exactly against
// metrics (fencing refusals, failovers, elections, degraded
// transitions); and two runs with equal options are bit-identical.
//
// Single-threaded and scripted, like every harness in this package:
// concurrency is modeled through pre-op store hooks on the virtual
// clock, so every race has one deterministic interleaving per seed.

import (
	"errors"
	"fmt"
	"time"

	"p4auth/internal/controller"
	"p4auth/internal/core"
	"p4auth/internal/crypto"
	"p4auth/internal/deploy"
	"p4auth/internal/ha"
	"p4auth/internal/netsim"
	"p4auth/internal/obs"
	"p4auth/internal/pisa"
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
	// Trace is the deterministic event log.
	Trace []string
	// Violations lists every invariant breach; empty means clean.
	Violations []string
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
	o   GroupOptions
	res *GroupResult
	rng rng
	sim *netsim.Sim
	st  *statestore.FaultStore
	ob  *obs.Observer

	names  []string
	sw     map[string]*deploy.Switch
	shadow map[string][]uint64
	floors map[string][]uint64

	grp  *ha.Group
	reps []*ha.Replica
}

func (h *groupHarness) trace(format string, args ...interface{}) {
	h.res.Trace = append(h.res.Trace,
		fmt.Sprintf("t=%-12v ", h.sim.Now())+fmt.Sprintf(format, args...))
}

func (h *groupHarness) violate(format string, args ...interface{}) {
	v := fmt.Sprintf(format, args...)
	h.res.Violations = append(h.res.Violations, v)
	h.trace("VIOLATION: %s", v)
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
	h := &groupHarness{
		o:      o,
		res:    &GroupResult{Replicas: o.Replicas, Switches: o.Switches, WarmAll: true},
		rng:    rng{s: o.Seed ^ 0x6E0C0DE5},
		sim:    netsim.NewSim(),
		ob:     obs.NewObserver(0),
		sw:     map[string]*deploy.Switch{},
		shadow: map[string][]uint64{},
		floors: map[string][]uint64{},
	}
	h.st = statestore.NewFaultStore(statestore.NewMem(), h.sim, statestore.FaultConfig{Seed: o.Seed})
	for i := 0; i < o.Switches; i++ {
		name := fmt.Sprintf("s%02d", i)
		s, err := deploy.Build(deploy.SwitchSpec{
			Name:  name,
			Ports: 4,
			Registers: []*pisa.RegisterDef{
				{Name: "lat", Width: 32, Entries: latEntries},
			},
		})
		if err != nil {
			return nil, err
		}
		h.sw[name] = s
		h.names = append(h.names, name)
		h.shadow[name] = make([]uint64, latEntries)
	}
	for i := 0; i < o.Replicas; i++ {
		r, err := h.newReplica(fmt.Sprintf("ctl-%d", i), uint64(i))
		if err != nil {
			return nil, err
		}
		h.reps = append(h.reps, r)
	}
	grp, err := ha.NewGroup(h.sim, h.reps...)
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
	c := controller.New(crypto.NewSeededRand(h.o.Seed*1000003 + 7001*rank + 101))
	c.SetRetryPolicy(controller.ResilientRetryPolicy())
	c.UseClock(h.sim)
	for _, n := range h.names {
		s := h.sw[n]
		if err := c.Register(n, s.Host, s.Cfg, 50*time.Microsecond); err != nil {
			return nil, err
		}
	}
	return ha.NewReplica(ha.ReplicaConfig{
		Name:       name,
		Store:      h.st,
		Clock:      h.sim,
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
	for _, n := range h.names {
		for k := 0; k < h.o.WritesPerSwitch; k++ {
			idx := uint32(h.rng.intn(latEntries - 2))
			v := h.rng.next() % 0xFFFF
			if _, err := c.WriteRegister(n, "lat", idx, v); err != nil {
				h.violate("%s: write %s lat[%d]: %v", label, n, idx, err)
				return
			}
			h.shadow[n][idx] = v
			h.res.Landed++
		}
	}
	h.trace("%s: %d writes landed across %d switches", label,
		h.o.WritesPerSwitch*len(h.names), len(h.names))
}

// sampleActives asserts at most one replica passes its fence right now.
func (h *groupHarness) sampleActives(label string) {
	active := 0
	holders := ""
	for _, r := range h.reps {
		if r.IsActive() {
			active++
			holders += " " + r.Name()
		}
	}
	if active > 1 {
		h.violate("%s: TWO ACTIVES at one instant:%s", label, holders)
	}
	h.trace("%s: %d replica(s) pass the fence%s", label, active, holders)
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
	h.trace("baseline: %d replicas ranked, %d switches, ttl=%v grace=%v skew=%v",
		h.o.Replicas, len(h.names), h.o.TTL, h.o.FenceGrace, h.o.MaxSkew)

	h.load("baseline", act.Controller())
	tailed, err := h.grp.TailStandbys()
	if err != nil {
		return fmt.Errorf("chaos: standby tail: %w", err)
	}
	if tailed < (h.o.Replicas-1)*len(h.names) {
		h.violate("standbys tailed %d records, want >= %d", tailed, (h.o.Replicas-1)*len(h.names))
	}
	h.trace("baseline: standbys tailed %d records", tailed)

	if _, err := h.reps[1].Controller().WriteRegister(h.names[0], "lat", 0, 1); !errors.Is(err, controller.ErrFenced) {
		h.violate("fenced standby write = %v, want ErrFenced", err)
	}
	for _, n := range h.names {
		h.floors[n] = h.readFloors(n)
	}
	h.forgerySweep("baseline")
	h.sampleActives("baseline")
	return nil
}

// rollingKill: kill the active, then each successor mid-promotion (via a
// lease-CAS counting hook), leaving only the last rank to finish. The
// chain depth, epochs, and wait-outs are all deterministic functions of
// the group size.
func (h *groupHarness) rollingKill() *ha.Replica {
	faultAt := h.sim.Now()
	h.reps[0].Controller().Kill()
	h.trace("fault: active %s killed", h.reps[0].Name())

	// The fencing guarantee: no successor can acquire pre-expiry.
	if _, err := h.reps[1].Activate(ha.CausePromoted); !errors.Is(err, ha.ErrLeaseHeld) {
		h.violate("takeover before lease expiry = %v, want ErrLeaseHeld", err)
	} else {
		h.trace("pre-expiry takeover refused: lease held")
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
				h.trace("fault: successor %s killed mid-promotion (lease CAS %d)", h.reps[k].Name(), cas)
			}
		}
	})
	el, err := h.grp.Elect(ha.CauseElected)
	h.st.SetHook(nil)
	if err != nil {
		h.violate("rolling-kill election: %v", err)
		return nil
	}
	h.res.FailoverTime = h.sim.Now() - faultAt
	h.res.Chained = el.Chained

	want := h.reps[h.o.Replicas-1]
	if el.Winner != want {
		h.violate("rolling-kill winner = %s, want %s (last rank)", el.Winner.Name(), want.Name())
	}
	if el.Chained != midKills {
		h.violate("chained promotions = %d, want %d", el.Chained, midKills)
	}
	// Epochs: bootstrap 1, then one per successor (aborted or not).
	if got, wantE := el.Winner.Epoch(), uint64(h.o.Replicas); got != wantE {
		h.violate("winner epoch = %d, want %d", got, wantE)
	}
	h.checkWarm(el.Winner, el.Warm)
	h.trace("elected %s at epoch %d: chained=%d failover=%v (budget %v)",
		el.Winner.Name(), el.Winner.Epoch(), el.Chained, h.res.FailoverTime, h.o.FailoverBudget)
	if h.res.FailoverTime > h.o.FailoverBudget {
		h.violate("failover took %v, budget %v", h.res.FailoverTime, h.o.FailoverBudget)
	}
	if wo := h.ob.Metrics.Counter("ha.election_waitouts").Load(); wo < uint64(midKills+1) {
		h.violate("wait-outs = %d, want >= %d (every dead grant waited out in full)", wo, midKills+1)
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
		h.violate("pre-blip renew: %v", err)
		return nil
	}

	// Phase 1: blip < grace. Signed reads keep flowing on the degraded
	// fence (writes would need the journal, which IS the store — reads
	// are the operation a store blip must not take down).
	blipFrom := h.sim.Now() + 50*time.Microsecond
	blipTo := blipFrom + h.o.FenceGrace/2
	if err := h.st.ScheduleOutage(blipFrom, blipTo); err != nil {
		h.violate("blip schedule: %v", err)
		return nil
	}
	h.sim.Advance(100 * time.Microsecond)
	probe := h.names[h.rng.intn(len(h.names))]
	if _, _, err := act.Controller().ReadRegister(probe, "lat", 0); err != nil {
		h.violate("read during blip (inside grace) = %v, want served on cached grant", err)
	} else {
		h.trace("blip: read on %s served on cached evidence", probe)
	}
	if !act.InDegraded() {
		h.violate("active not in degraded mode during blip")
	}
	h.sim.Advance(blipTo - h.sim.Now() + 100*time.Microsecond)
	if _, _, err := act.Controller().ReadRegister(probe, "lat", 0); err != nil {
		h.violate("read after blip = %v", err)
	}
	if act.InDegraded() {
		h.violate("active still degraded after the store recovered")
	}
	m := h.ob.Metrics
	if a := m.Counter("ha.degraded_admits").Load(); a == 0 {
		h.violate("blip produced no degraded admissions")
	}
	if x := m.Counter("ha.degraded_exits").Load(); x == 0 {
		h.violate("blip recovery produced no degraded exit")
	}
	h.trace("blip survived: admits=%d exits=%d", m.Counter("ha.degraded_admits").Load(),
		m.Counter("ha.degraded_exits").Load())

	// Phase 2: outage > grace. The fence must exhaust and refuse BEFORE
	// the lease itself expires — fail-safe, never fail-open.
	if err := act.Renew(); err != nil {
		h.violate("pre-outage renew: %v", err)
		return nil
	}
	renewedAt := h.sim.Now()
	outFrom := h.sim.Now() + 50*time.Microsecond
	outTo := outFrom + h.o.TTL + 2*time.Millisecond
	if err := h.st.ScheduleOutage(outFrom, outTo); err != nil {
		h.violate("outage schedule: %v", err)
		return nil
	}
	// Inside the grace the active still serves — this is the episode the
	// exhaustion below ends.
	h.sim.Advance(200 * time.Microsecond)
	if _, _, err := act.Controller().ReadRegister(probe, "lat", 0); err != nil {
		h.violate("read inside outage grace = %v, want served on cached grant", err)
	}
	h.sim.Advance(renewedAt + h.o.FenceGrace + 200*time.Microsecond - h.sim.Now())
	if h.sim.Now() >= renewedAt+h.o.TTL {
		h.violate("harness bug: grace probe past lease expiry")
	}
	if _, _, err := act.Controller().ReadRegister(probe, "lat", 0); !errors.Is(err, controller.ErrFenced) {
		h.violate("read past grace = %v, want ErrFenced (fail-safe before expiry)", err)
	} else {
		h.trace("outage past grace: active self-fenced (%s) with lease still unexpired", ha.FenceCause(err))
	}
	if x := m.Counter("ha.degraded_exhausted").Load(); x == 0 {
		h.violate("long outage produced no grace exhaustion")
	}
	// A write attempt by the self-fenced active must die without a trace.
	if _, err := act.Controller().WriteRegister(h.names[0], "lat", latEntries-2, 0x666); err == nil {
		h.violate("write by self-fenced active succeeded during outage")
	}

	// The wedged node fail-stops; the store comes back; succession.
	faultAt := h.sim.Now()
	act.Controller().Kill()
	h.trace("fault: self-fenced active %s fail-stops", act.Name())
	h.sim.Advance(outTo - h.sim.Now() + 100*time.Microsecond)
	el, err := h.grp.Elect(ha.CauseElected)
	if err != nil {
		h.violate("post-outage election: %v", err)
		return nil
	}
	h.res.FailoverTime = h.sim.Now() - faultAt
	h.res.Chained = el.Chained
	if el.Winner != h.reps[1] || el.Chained != 0 {
		h.violate("post-outage winner = %s chained %d, want %s chained 0",
			el.Winner.Name(), el.Chained, h.reps[1].Name())
	}
	if got := el.Winner.Epoch(); got != 2 {
		h.violate("post-outage epoch = %d, want 2", got)
	}
	h.checkWarm(el.Winner, el.Warm)
	h.trace("elected %s at epoch %d after outage: failover=%v (budget %v)",
		el.Winner.Name(), el.Winner.Epoch(), h.res.FailoverTime, h.o.FailoverBudget)
	if h.res.FailoverTime > h.o.FailoverBudget {
		h.violate("failover took %v, budget %v", h.res.FailoverTime, h.o.FailoverBudget)
	}
	// The 0x666 probe slot must hold anything but the fenced value.
	if v, _, err := el.Winner.Controller().ReadRegister(h.names[0], "lat", latEntries-2); err != nil {
		h.violate("outage probe read-back: %v", err)
	} else if v == 0x666 {
		h.violate("FENCED WRITE LANDED: outage probe slot = 0x666")
	}
	h.sampleActives("post-election")
	return el.Winner
}

// acquireRace: the lease falls vacant and every standby from rank 2 down
// races the rank-1 candidate over the CAS record, modeled by a one-shot
// pre-CAS hook. Exactly one acquirer may win; the group resolves to that
// winner as the incumbent.
func (h *groupHarness) acquireRace() *ha.Replica {
	faultAt := h.sim.Now()
	h.reps[0].Controller().Kill()
	h.trace("fault: active %s killed", h.reps[0].Name())

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
				h.violate("racer %s tail: %v", rv.Name(), err)
				continue
			}
			warm, _, err := rv.Promote(ha.CausePromoted)
			switch {
			case err == nil:
				if winner != nil {
					h.violate("TWO RACE WINNERS: %s and %s", winner.Name(), rv.Name())
				}
				winner = rv
				raceWarm = warm
				h.trace("race: %s acquired and promoted at epoch %d", rv.Name(), rv.Epoch())
			case errors.Is(err, ha.ErrLeaseHeld), errors.Is(err, ha.ErrLeaseRaced):
				losers++
				h.trace("race: %s lost (%v)", rv.Name(), errors.Unwrap(err))
			default:
				h.violate("racer %s promote = %v, want win or clean loss", rv.Name(), err)
			}
		}
	})
	el, err := h.grp.Elect(ha.CauseElected)
	h.st.SetHook(nil)
	if err != nil {
		h.violate("race election: %v", err)
		return nil
	}
	h.res.FailoverTime = h.sim.Now() - faultAt

	if !armed {
		h.violate("race hook never fired; the scenario exercised nothing")
	}
	if winner != h.reps[2] {
		h.violate("race winner = %v, want %s (first racer, deterministic)", winner, h.reps[2].Name())
		return nil
	}
	if wantLosers := h.o.Replicas - 3; losers != wantLosers {
		h.violate("race losers = %d, want %d", losers, wantLosers)
	}
	// The group resolved the raced election to the incumbent winner: the
	// rank-1 candidate lost its swap and nobody was double-granted.
	if !el.Incumbent || el.Winner != winner {
		h.violate("election = winner %s incumbent %v, want incumbent %s",
			el.Winner.Name(), el.Incumbent, winner.Name())
	}
	if got := winner.Epoch(); got != 2 {
		h.violate("race winner epoch = %d, want 2", got)
	}
	if err := h.reps[1].Fence(); !errors.Is(err, controller.ErrFenced) {
		h.violate("raced-out candidate %s passes the fence", h.reps[1].Name())
	}
	h.checkWarm(winner, raceWarm)
	h.trace("race resolved: %s serving at epoch %d, %d loser(s), failover=%v",
		winner.Name(), winner.Epoch(), losers, h.res.FailoverTime)
	if h.res.FailoverTime > h.o.FailoverBudget {
		h.violate("failover took %v, budget %v", h.res.FailoverTime, h.o.FailoverBudget)
	}
	h.sampleActives("post-race")
	return winner
}

// checkWarm asserts the winner recovered every switch warm with zero
// K_seed uses.
func (h *groupHarness) checkWarm(w *ha.Replica, warm map[string]bool) {
	for _, n := range h.names {
		if !warm[n] {
			h.res.WarmAll = false
			h.violate("%s: promotion recovered cold (fell back to K_seed)", n)
		}
		if u := w.Controller().SeedUses(n); u != 0 {
			h.violate("%s: promotion used K_seed %d times", n, u)
		}
	}
}

// aftermath probes every non-winner for fencing, lands a final wave
// through the winner, and verifies the fleet against the shadow.
func (h *groupHarness) aftermath(w *ha.Replica) {
	for _, r := range h.reps {
		if r == w {
			continue
		}
		n := h.names[h.rng.intn(len(h.names))]
		idx := uint32(h.rng.intn(latEntries - 2))
		before, _, rerr := w.Controller().ReadRegister(n, "lat", idx)
		if rerr != nil {
			h.violate("aftermath read %s lat[%d]: %v", n, idx, rerr)
			continue
		}
		_, err := r.Controller().WriteRegister(n, "lat", idx, 0x777)
		switch {
		case errors.Is(err, controller.ErrFenced):
			h.trace("deposed %s write %s lat[%d] refused by fence", r.Name(), n, idx)
		case errors.Is(err, controller.ErrKilled):
			h.trace("deposed %s write %s lat[%d] refused (dead)", r.Name(), n, idx)
		default:
			h.violate("deposed %s write = %v, want fenced/killed refusal", r.Name(), err)
		}
		got, _, rerr := w.Controller().ReadRegister(n, "lat", idx)
		if rerr != nil {
			h.violate("aftermath re-read %s lat[%d]: %v", n, idx, rerr)
		} else if got != before {
			h.violate("STALE WRITE APPLIED: %s lat[%d] %d -> %d past the fence", n, idx, before, got)
		}
	}
	h.load("final", w.Controller())
	h.verifyShadows("final", w.Controller())
	h.forgerySweep("final")
}

// finalChecks is the post-run invariant sweep: floors monotone, no
// dangling intents, audit reconciled exactly.
func (h *groupHarness) finalChecks(w *ha.Replica) {
	for _, n := range h.names {
		cur := h.readFloors(n)
		old := h.floors[n]
		for i := range old {
			if i < len(cur) && cur[i] < old[i] {
				h.violate("%s: replay floor %d regressed %d -> %d across succession", n, i, old[i], cur[i])
			}
		}
	}
	for _, n := range h.names {
		entries, err := w.Controller().JournalEntries(n)
		if err != nil {
			h.violate("%s: JournalEntries: %v", n, err)
			continue
		}
		for _, e := range entries {
			if e.State == core.WriteIntent {
				h.violate("%s: dangling journal intent after succession: %s", n, e.Dump())
			}
		}
	}

	m, a := h.ob.Metrics, h.ob.Audit
	if a.Evicted() > 0 {
		h.violate("audit ring evicted %d events", a.Evicted())
	}
	h.res.FencedAttempts = m.Counter("ha.fenced_writes").Load() + m.Counter("ha.fenced_persists").Load()
	if n := uint64(len(a.ByType(obs.EvFencedWrite))); n != h.res.FencedAttempts {
		h.violate("%d fencing refusals counted, %d audited", h.res.FencedAttempts, n)
	}
	if h.res.FencedAttempts == 0 {
		h.violate("run produced no fencing refusals — the scenario did not bite")
	}
	if fo, n := m.Counter("ha.failovers").Load(), uint64(len(a.ByType(obs.EvFailover))); fo != n {
		h.violate("failovers = %d, audited %d", fo, n)
	}
	if el, n := m.Counter("ha.elections").Load(), uint64(len(a.ByType(obs.EvElection))); el != n {
		h.violate("elections = %d, audited %d", el, n)
	}
	trans := m.Counter("ha.degraded_enters").Load() +
		m.Counter("ha.degraded_exits").Load() +
		m.Counter("ha.degraded_exhausted").Load()
	if n := uint64(len(a.ByType(obs.EvDegraded))); n != trans {
		h.violate("degraded transitions = %d, audited %d", trans, n)
	}
	if drops, n := m.Counter("ctl.write_dropped").Load(), uint64(len(a.ByType(obs.EvWriteDropped))); drops != n {
		h.violate("%d dropped writes counted, %d audited", drops, n)
	}
	if bumps, n := m.Counter("ctl.floor_bumps").Load(), uint64(len(a.ByType(obs.EvFloorBump))); bumps != n {
		h.violate("%d floor bumps counted, %d audited", bumps, n)
	}
	for _, e := range a.ByType(obs.EvFencedWrite) {
		if e.Cause == "" {
			h.violate("fenced-write audit event #%d (%s) names no cause", e.ID, e.Actor)
		}
	}

	h.res.Winner = w.Name()
	h.res.Epoch = w.Epoch()
	h.res.WaitOuts = m.Counter("ha.election_waitouts").Load()
	h.res.DegradedAdmits = m.Counter("ha.degraded_admits").Load()
	h.trace("done: winner=%s epoch=%d chained=%d waitouts=%d degraded_admits=%d fenced=%d landed=%d violations=%d",
		h.res.Winner, h.res.Epoch, h.res.Chained, h.res.WaitOuts,
		h.res.DegradedAdmits, h.res.FencedAttempts, h.res.Landed, len(h.res.Violations))
}

// verifyShadows reads every shadowed slot back through the winner.
func (h *groupHarness) verifyShadows(label string, c *controller.Controller) {
	for _, n := range h.names {
		for idx := 0; idx < latEntries-2; idx++ {
			want := h.shadow[n][idx]
			if want == 0 {
				continue
			}
			got, _, err := c.ReadRegister(n, "lat", uint32(idx))
			if err != nil {
				h.violate("%s: read %s lat[%d]: %v", label, n, idx, err)
				return
			}
			if got != want {
				h.violate("%s: %s lat[%d] = %d, want %d", label, n, idx, got, want)
			}
		}
	}
	h.trace("%s: fleet state verified against shadow", label)
}

// forgerySweep runs the shared forgery probe (forgery.go).
func (h *groupHarness) forgerySweep(label string) {
	sweepForgeries(label, h.names, h.sw, &h.rng, h.violate, h.trace)
}

// readFloors returns the full RegSeq file of a switch.
func (h *groupHarness) readFloors(n string) []uint64 {
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

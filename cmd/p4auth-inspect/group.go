package main

import (
	"fmt"
	"io"
	"time"

	"p4auth/internal/ha"
	"p4auth/internal/netsim/chaos"
	"p4auth/internal/obs"
	"p4auth/internal/statestore"
)

// runGroup implements the `group` subcommand: a deterministic reference
// run of the N-replica controller group. A 3-replica group over a
// fault-injecting store walks through bootstrap, standby tailing, a
// store blip survived on the bounded-staleness fence, the active's
// death, rank-order election (waiting out the dead grant in full), and
// a second succession to the last rank — printing the lease record at
// each stage, the ha.* group instruments, and the election/degraded
// audit trail.
func runGroup(w io.Writer) error {
	const (
		replicas = 3
		fleet    = 4
		ttl      = 5 * time.Millisecond
		grace    = ttl / 4
		skew     = ttl / 16
	)
	fx, err := chaos.NewFixture(chaos.FleetNames(fleet)...)
	if err != nil {
		return err
	}
	sim, names := fx.Sim, fx.Names
	st := statestore.NewFaultStore(statestore.NewMem(), sim, statestore.FaultConfig{Seed: 0x6E5C})
	ob := obs.NewObserver(0)
	reps := make([]*ha.Replica, replicas)
	for i := range reps {
		c, err := fx.NewController(0x0C00 + uint64(i))
		if err != nil {
			return err
		}
		r, err := ha.NewReplica(ha.ReplicaConfig{
			Name:       fmt.Sprintf("ctl-%d", i),
			Store:      st,
			Clock:      sim,
			TTL:        ttl,
			Controller: c,
			Observer:   ob,
			FenceGrace: grace,
			MaxSkew:    skew,
		})
		if err != nil {
			return err
		}
		reps[i] = r
	}
	grp, err := ha.NewGroup(sim, reps...)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "== group election reference run (%d replicas, %d switches, ttl %v, grace %v, skew %v) ==\n",
		replicas, fleet, ttl, grace, skew)
	act, err := grp.Bootstrap()
	if err != nil {
		return err
	}
	if _, err := act.Controller().InitAllKeys(); err != nil {
		return err
	}
	if err := printLease(w, st, "bootstrap"); err != nil {
		return err
	}
	for _, n := range names {
		if _, err := act.Controller().WriteRegister(n, "lat", 1, 77); err != nil {
			return err
		}
	}
	tailed, err := grp.TailStandbys()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "[steady] active %s wrote %d switches, %d standbys tailed %d records\n",
		act.Name(), fleet, replicas-1, tailed)

	// Bounded-staleness fence: a store blip shorter than the grace must
	// not take signed reads down — the active serves on cached evidence
	// and announces the episode, then recovers when the store returns.
	if err := act.Renew(); err != nil {
		return err
	}
	blipFrom := sim.Now() + 50*time.Microsecond
	if err := st.ScheduleOutage(blipFrom, blipFrom+grace/2); err != nil {
		return err
	}
	sim.Advance(100 * time.Microsecond)
	if _, _, err := act.Controller().ReadRegister(names[0], "lat", 1); err != nil {
		return fmt.Errorf("read during store blip = %v, want served on cached grant", err)
	}
	fmt.Fprintf(w, "[blip] store dark, read served on cached evidence (degraded=%v)\n", act.InDegraded())
	sim.Advance(grace/2 + 100*time.Microsecond)
	if _, _, err := act.Controller().ReadRegister(names[0], "lat", 1); err != nil {
		return err
	}
	fmt.Fprintf(w, "[blip] store back, fence healthy again (degraded=%v)\n", act.InDegraded())

	// First succession: kill the active; election waits out the dead
	// grant in full (the TTL is the detection bound) and promotes the
	// next rank warm from tailed state.
	act.Controller().Kill()
	fmt.Fprintf(w, "[fault] active %s killed at t=%v\n", act.Name(), sim.Now())
	el, err := grp.Elect(ha.CauseElected)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "[elect] %s active at t=%v, epoch %d, %d/%d switches warm, took %v\n",
		el.Winner.Name(), sim.Now(), el.Winner.Epoch(), warmCount(el.Warm), fleet, el.Duration)
	if err := printLease(w, st, "elect"); err != nil {
		return err
	}

	// Second succession: the new active dies too; the last rank takes
	// over at the next epoch from the same tailed store state.
	el.Winner.Controller().Kill()
	fmt.Fprintf(w, "[fault] active %s killed at t=%v\n", el.Winner.Name(), sim.Now())
	el2, err := grp.Elect(ha.CauseElected)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "[elect] %s active at t=%v, epoch %d, %d/%d switches warm, took %v\n",
		el2.Winner.Name(), sim.Now(), el2.Winner.Epoch(), warmCount(el2.Warm), fleet, el2.Duration)
	if err := printLease(w, st, "elect"); err != nil {
		return err
	}
	v, _, err := el2.Winner.Controller().ReadRegister(names[0], "lat", 1)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "[elect] state survived two successions: %s lat[1]=%d\n", names[0], v)

	fmt.Fprintln(w, "\n== group metrics ==")
	for _, name := range []string{
		"ha.elections", "ha.chained_promotions", "ha.election_waitouts",
		"ha.failovers", "ha.degraded_enters", "ha.degraded_admits",
		"ha.degraded_exits", "ha.degraded_exhausted",
	} {
		fmt.Fprintf(w, "counter  %-24s %12d\n", name, ob.Metrics.Counter(name).Load())
	}
	fmt.Fprintln(w, "\n== election audit trail ==")
	for _, e := range ob.Audit.Events() {
		if e.Type == obs.EvElection || e.Type == obs.EvDegraded {
			fmt.Fprintf(w, "#%d %s actor=%s cause=%s chained=%d epoch=%d\n",
				e.ID, e.Type, e.Actor, e.Cause, e.Seq, e.Value)
		}
	}
	return nil
}

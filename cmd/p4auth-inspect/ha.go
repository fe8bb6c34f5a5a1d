package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"p4auth/internal/controller"
	"p4auth/internal/ha"
	"p4auth/internal/netsim/chaos"
	"p4auth/internal/obs"
	"p4auth/internal/statestore"
)

// runHA implements the `ha` subcommand. With file arguments it decodes
// persisted PALS lease records (point it at <store-dir>/ha/lease). With
// no arguments it runs the deterministic failover reference: a seeded
// active/standby pair over a small fleet walks through bootstrap,
// standby fencing, active death, lease expiry, and warm promotion —
// printing the lease record at each stage, the ha.* instruments, and
// the failover/fenced-write audit trail.
func runHA(paths []string, w io.Writer) error {
	if len(paths) > 0 {
		for _, p := range paths {
			b, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			l, err := statestore.DecodeLease(b)
			if err != nil {
				return fmt.Errorf("%s: %w", p, err)
			}
			fmt.Fprintf(w, "== %s ==\n%s\n", p, l.Dump())
		}
		return nil
	}

	const (
		fleet = 4
		ttl   = 5 * time.Millisecond
	)
	fx, err := chaos.NewFixture(chaos.FleetNames(fleet)...)
	if err != nil {
		return err
	}
	sim, names := fx.Sim, fx.Names
	st := statestore.NewMem()
	ob := obs.NewObserver(0)
	mk := func(replica string, seed uint64) (*ha.Replica, error) {
		c, err := fx.NewController(seed)
		if err != nil {
			return nil, err
		}
		return ha.NewReplica(ha.ReplicaConfig{
			Name: replica, Store: st, Clock: sim, TTL: ttl,
			Controller: c, Observer: ob,
		})
	}
	a, err := mk("ctl-a", 0x0A11)
	if err != nil {
		return err
	}
	b, err := mk("ctl-b", 0x0B11)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "== failover reference run (%d switches, ttl %v) ==\n", fleet, ttl)
	if _, err := a.Activate(ha.CauseBootstrap); err != nil {
		return err
	}
	if _, err := a.Controller().InitAllKeys(); err != nil {
		return err
	}
	if err := printLease(w, st, "bootstrap"); err != nil {
		return err
	}
	for _, n := range names {
		if _, err := a.Controller().WriteRegister(n, "lat", 1, 77); err != nil {
			return err
		}
	}
	tailed, err := b.TailOnce()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "[steady] active wrote %d switches, standby tailed %d records\n", fleet, tailed)
	if _, err := b.Controller().WriteRegister(names[0], "lat", 2, 1); errors.Is(err, controller.ErrFenced) {
		fmt.Fprintf(w, "[steady] standby write refused: %s\n", ha.FenceCause(err))
	} else {
		return fmt.Errorf("standby write = %v, want fence refusal", err)
	}

	a.Controller().Kill()
	fmt.Fprintf(w, "[fault] active killed at t=%v\n", sim.Now())
	if _, err := b.Activate(ha.CausePromoted); errors.Is(err, ha.ErrLeaseHeld) {
		fmt.Fprintf(w, "[fault] pre-expiry takeover refused: lease held\n")
	} else {
		return fmt.Errorf("pre-expiry takeover = %v, want ErrLeaseHeld", err)
	}
	sim.Advance(ttl + time.Millisecond)
	warm, _, err := b.Promote(ha.CausePromoted)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "[promote] standby active at t=%v, %d/%d switches warm\n", sim.Now(), warmCount(warm), fleet)
	if err := printLease(w, st, "promote"); err != nil {
		return err
	}
	if cause := ha.FenceCause(a.Fence()); cause != "" {
		fmt.Fprintf(w, "[promote] deposed active fence cause: %s\n", cause)
	}
	v, _, err := b.Controller().ReadRegister(names[0], "lat", 1)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "[promote] state survived: %s lat[1]=%d\n", names[0], v)

	fmt.Fprintln(w, "\n== ha metrics ==")
	for _, name := range []string{
		"ha.failovers", "ha.lease_acquire", "ha.lease_renew",
		"ha.fenced_writes", "ha.fenced_persists", "ha.tail_records",
	} {
		fmt.Fprintf(w, "counter  %-24s %12d\n", name, ob.Metrics.Counter(name).Load())
	}
	fmt.Fprintln(w, "\n== failover audit trail ==")
	for _, e := range ob.Audit.Events() {
		if e.Type == obs.EvFailover || e.Type == obs.EvFencedWrite {
			fmt.Fprintf(w, "#%d %s actor=%s cause=%s epoch=%d\n", e.ID, e.Type, e.Actor, e.Cause, e.Seq)
		}
	}
	return nil
}

// printLease prints the lease record currently in the store, tagged with
// the stage of the reference run.
func printLease(w io.Writer, st statestore.Store, stage string) error {
	raw, err := st.Load(statestore.LeaseKey)
	if err != nil {
		return err
	}
	l, err := statestore.DecodeLease(raw)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "[%s] %s\n", stage, l.Dump())
	return nil
}

// warmCount counts the switches a promotion recovered warm.
func warmCount(warm map[string]bool) int {
	n := 0
	for _, ok := range warm {
		if ok {
			n++
		}
	}
	return n
}

package main

import (
	"fmt"
	"io"
	"time"

	"p4auth/internal/fabric"
	"p4auth/internal/hula"
	"p4auth/internal/obs"
)

// runLinks implements the `links` subcommand: stand up the Fig. 3 HULA
// fabric under link-health supervision, interrupt a port-key update so
// one link suffers a one-sided rollover, and let the supervisor detect
// the skew, quarantine the link, repair the key pair under an epoch
// fence, and reinstate it after probation. The run is deterministic in
// virtual time; the output shows every link's final health state and the
// full transition trail with machine-matchable causes — a quick
// reference for what `fabric.Supervisor` exports.
func runLinks(w io.Writer) error {
	n, err := hula.NewFig3Network(true, 1e9, 5*time.Microsecond)
	if err != nil {
		return err
	}
	sup, err := n.NewSupervisor(fabric.DefaultConfig())
	if err != nil {
		return err
	}

	const dur = 20 * time.Millisecond
	n.ScheduleProbes("s5", 5, 200*time.Microsecond, dur)
	n.ScheduleProbes("s1", 1, 200*time.Microsecond, dur)
	n.ScheduleSupervisor(sup, time.Millisecond, dur)

	// At 8ms a port-key update loses its DP-DP leg: s2 installs the new
	// pair, s1 never hears about it.
	var injectErr error
	n.Net.Sim.At(8*time.Millisecond, func() {
		if err := n.Ctrl.SetLinkTap("s1", 1, func([]byte) []byte { return nil }); err != nil {
			injectErr = err
			return
		}
		_, _ = n.Ctrl.PortKeyUpdate("s2", 1) // interrupted on purpose
		injectErr = n.Ctrl.SetLinkTap("s1", 1, nil)
	})
	n.Net.Sim.Run()
	if injectErr != nil {
		return injectErr
	}

	fmt.Fprintln(w, "== link health ==")
	fmt.Fprintf(w, "%-14s %-12s %-10s %-22s %5s %5s %8s %8s\n",
		"link", "state", "since", "last-cause", "epoch", "fails", "fb-ok", "fb-bad")
	for _, st := range sup.Snapshot() {
		cause := st.Cause
		if cause == "" {
			cause = "-"
		}
		fmt.Fprintf(w, "%-14s %-12s %-10v %-22s %5d %5d %8d %8d\n",
			st.Link, st.State, st.Since, cause, st.Epoch, st.RepairFails, st.OK, st.Bad)
	}

	fmt.Fprintln(w, "\n== transition trail ==")
	o := n.Ctrl.Observer()
	for _, e := range o.Audit.ByType(obs.EvLinkState) {
		from, to := fabric.TransitionPair(e.Value)
		fmt.Fprintf(w, "%-14s %-11s -> %-11s cause=%-22s epoch=%d\n",
			e.Actor, from, to, e.Cause, e.Seq)
	}
	fmt.Fprintf(w, "\ntransitions=%d repairs_ok=%d repairs_failed=%d\n",
		o.Metrics.Counter("fabric.transitions").Load(),
		o.Metrics.Counter("fabric.repairs_ok").Load(),
		o.Metrics.Counter("fabric.repairs_failed").Load())
	return nil
}

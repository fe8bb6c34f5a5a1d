package chaos

// Fabric chaos: seeded fault schedules against the self-healing DP-DP
// fabric (internal/fabric supervising a Fig. 3 HULA deployment). Where
// Run exercises crash recovery of the control plane, RunFabric exercises
// link-health supervision of the data plane: flap storms, two-way
// partitions, and one-sided port-key rollovers, each overlaid with an
// on-path probe forger so the authentication invariant is under attack
// for the whole degraded window.
//
// Invariants checked on every run:
//
//   - the forged utilization is never applied to best-path state
//     (fail-closed for authentication);
//   - while a link is quarantined, HULA's best hop never points at it
//     (degraded routing), yet data keeps being delivered over the
//     surviving paths (fail-open for reachability);
//   - after the fault clears, the fabric reconverges to all-links-Healthy
//     with correctly paired port keys on every adjacency;
//   - every link state transition is audited (the kernel's
//     AuditReconciled row for fabric.transitions) and is a real
//     transition.
//
// Runs are deterministic in virtual time: the same seed yields a
// bit-identical trace.

import (
	"fmt"
	"time"

	"p4auth/internal/crypto"
	"p4auth/internal/fabric"
	"p4auth/internal/hula"
	"p4auth/internal/netsim"
	"p4auth/internal/obs"
)

// FabricScenario selects the fault class injected on the s1-s2 link.
type FabricScenario string

const (
	// FabricFlap flaps the s1-s2 link in both directions with seeded
	// up/down phases, and forges every probe that survives the flap.
	FabricFlap FabricScenario = "flap"
	// FabricPartition cuts every link touching s2 (a two-way partition
	// of the fabric), then heals it.
	FabricPartition FabricScenario = "partition"
	// FabricSkew bumps s2's port-key version one-sidedly — the aftermath
	// of a rollover that installed on one end only.
	FabricSkew FabricScenario = "skew"
)

// FabricOptions configures one deterministic fabric-chaos run.
type FabricOptions struct {
	// Seed drives the fault schedule (flap phases, injection jitter).
	Seed uint64
	// Scenario is the fault class; see the FabricScenario constants.
	Scenario FabricScenario
}

// FabricResult is the outcome of one fabric-chaos run.
type FabricResult struct {
	// Recorder's Trace holds the fault injections plus every audited link
	// state transition, in order.
	Recorder
	// Transitions is the final fabric.transitions counter value.
	Transitions uint64
	// Quarantines counts transitions into the Quarantined state.
	Quarantines int
	// Repairs counts successful epoch-fenced port-key repairs.
	Repairs uint64
	// Delivered counts data packets that reached the destination host.
	Delivered uint64
}

// forgedUtil is the attacker's magic utilization value; it must never
// appear in best-path state.
const forgedUtil = 0x7A57

// Fabric-run timeline (virtual time).
const (
	fabricDur     = 60 * time.Millisecond
	fabricFaultAt = 8 * time.Millisecond
	fabricHealAt  = 30 * time.Millisecond
)

type fabricHarness struct {
	o   FabricOptions
	res *FabricResult
	rng *crypto.SeededRand
	n   *hula.Network
	sup *fabric.Supervisor
}

// RunFabric executes one deterministic fabric-chaos run.
func RunFabric(o FabricOptions) (*FabricResult, error) {
	switch o.Scenario {
	case FabricFlap, FabricPartition, FabricSkew:
	default:
		return nil, fmt.Errorf("chaos: unknown fabric scenario %q", o.Scenario)
	}
	n, err := hula.NewFig3Network(true, 1e9, 5*time.Microsecond)
	if err != nil {
		return nil, err
	}
	sup, err := n.NewSupervisor(fabric.DefaultConfig())
	if err != nil {
		return nil, err
	}
	h := &fabricHarness{
		o:   o,
		res: &FabricResult{Recorder: NewRecorder(n.Net.Sim)},
		rng: crypto.NewSeededRand(o.Seed ^ 0xFAB41C),
		n:   n,
		sup: sup,
	}

	n.ScheduleProbes("s5", 5, 200*time.Microsecond, fabricDur)
	n.ScheduleProbes("s1", 1, 200*time.Microsecond, fabricDur)
	n.ScheduleSupervisor(sup, time.Millisecond, fabricDur)
	var pkt uint64
	for at := 2 * time.Millisecond; at < fabricDur; at += 20 * time.Microsecond {
		at := at
		n.Net.Sim.At(at, func() {
			flow := uint32(pkt / 8)
			pkt++
			_ = n.SendData("s1", 5, flow, 1000)
		})
	}

	// The forger rides the s3->s1 direction for the whole degraded
	// window, in every scenario: each probe it touches carries the magic
	// utilization with a digest the key can't have produced.
	forgeLink := n.Net.LinkBetween("s1", "s3")
	n.Net.Sim.At(fabricFaultAt, func() {
		h.res.Tracef("inject forger on s1<-s3 (util=%#x)", forgedUtil)
		_ = forgeLink.SetTap("s1", hula.ForgeUtilTap(true, forgedUtil))
	})
	n.Net.Sim.At(fabricHealAt, func() {
		h.res.Tracef("clear forger on s1<-s3")
		_ = forgeLink.SetTap("s1", nil)
	})

	h.scheduleScenario()
	h.scheduleSamples()

	n.Net.Sim.Run()

	h.finalChecks()
	return h.res, nil
}

// scheduleScenario arms the scenario-specific fault on the s1-s2 link,
// jittered by the seed inside the first millisecond of the window.
func (h *fabricHarness) scheduleScenario() {
	jitter := time.Duration(intn(h.rng, 1000)) * time.Microsecond
	at := fabricFaultAt + jitter
	link := h.n.Net.LinkBetween("s1", "s2")
	switch h.o.Scenario {
	case FabricFlap:
		// Short phases toward s1 (probe direction), long phases toward
		// s2 (data + reverse probes); both seeded from the run seed.
		upA, downA := 4+intn(h.rng, 8), 16+intn(h.rng, 16)
		upB, downB := 40+intn(h.rng, 40), 160+intn(h.rng, 80)
		seedA, seedB := h.rng.Uint64(), h.rng.Uint64()
		h.n.Net.Sim.At(at, func() {
			h.res.Tracef("inject flap on s1-s2 (toward s1 %d/%d, toward s2 %d/%d)",
				upA, downA, upB, downB)
			_ = link.SetTap("s1", netsim.ChainTaps(
				netsim.LinkFlapTap(upA, downA, seedA),
				hula.ForgeUtilTap(true, forgedUtil),
			))
			_ = link.SetTap("s2", netsim.LinkFlapTap(upB, downB, seedB))
		})
		h.n.Net.Sim.At(fabricHealAt, func() {
			h.res.Tracef("clear flap on s1-s2")
			_ = link.SetTap("s1", nil)
			_ = link.SetTap("s2", nil)
		})
	case FabricPartition:
		h.n.Net.Sim.At(at, func() {
			cut := h.n.Net.Partition("s2")
			h.res.Tracef("partition {s2} (%d links cut)", len(cut))
		})
		h.n.Net.Sim.At(fabricHealAt, func() {
			healed := h.n.Net.Heal()
			h.res.Tracef("heal partition (%d links restored)", healed)
		})
	case FabricSkew:
		// A port-key update loses its DP-DP leg toward s1's end: one side
		// installs the new key pair, the other never hears about it — the
		// physically-realizable one-sided rollover.
		h.n.Net.Sim.At(at, func() {
			if err := h.n.Ctrl.SetLinkTap("s1", 1, func([]byte) []byte { return nil }); err != nil {
				h.res.Violatef("arm link tap: %v", err)
				return
			}
			_, _ = h.n.Ctrl.PortKeyUpdate("s2", 1) // interrupted on purpose
			if err := h.n.Ctrl.SetLinkTap("s1", 1, nil); err != nil {
				h.res.Violatef("clear link tap: %v", err)
				return
			}
			skew, err := h.n.Ctrl.PortKeySkew("s2", 1)
			if err != nil || skew == nil {
				h.res.Violatef("sabotage produced no skew (skew=%v err=%v)", skew, err)
				return
			}
			h.res.Tracef("inject one-sided rollover on s1:1<->s2:1 (pa_ver %d vs %d)",
				skew.VerA, skew.VerB)
		})
	}
}

// scheduleSamples registers the mid-run invariant probes: once per
// millisecond through the degraded window and the recovery tail, check
// that the forged utilization never reached best-path state and that the
// best hop never points at a quarantined port.
func (h *fabricHarness) scheduleSamples() {
	s1 := h.n.Switches["s1"].Host.SW
	for at := fabricFaultAt + 2*time.Millisecond; at < fabricDur; at += time.Millisecond {
		at := at
		h.n.Net.Sim.At(at, func() {
			util, err := s1.RegisterRead(hula.RegBestUtil, 5)
			if err != nil {
				h.res.Violatef("best-util read: %v", err)
				return
			}
			if util == forgedUtil {
				h.res.Violatef("forged utilization %#x applied to best-path state at t=%v",
					forgedUtil, h.n.Net.Sim.Now())
			}
			hop, err := s1.RegisterRead(hula.RegBestHop, 5)
			if err != nil {
				h.res.Violatef("best-hop read: %v", err)
				return
			}
			for _, st := range h.sup.Snapshot() {
				if st.State != fabric.Quarantined {
					continue
				}
				var port int
				switch {
				case st.Link.A == "s1":
					port = st.Link.PA
				case st.Link.B == "s1":
					port = st.Link.PB
				default:
					continue
				}
				// Grace: a quarantine from the tick later this same
				// millisecond hasn't happened yet; one landed earlier has
				// had at least one probe round to re-steer.
				if int(hop) == port && h.n.Net.Sim.Now()-st.Since >= time.Millisecond {
					h.res.Violatef("best hop %d points at quarantined port s1:%d at t=%v",
						hop, port, h.n.Net.Sim.Now())
				}
			}
		})
	}
}

// finalChecks runs the post-run invariant sweep and fills the result
// summary.
func (h *fabricHarness) finalChecks() {
	if !h.sup.AllHealthy() {
		for _, st := range h.sup.Snapshot() {
			if st.State != fabric.Healthy {
				h.res.Violatef("link %v ended %v (cause %s)", st.Link, st.State, st.Cause)
			}
		}
	}
	for _, l := range h.n.Ctrl.Links() {
		skew, err := h.n.Ctrl.PortKeySkew(l[0].Switch, l[0].Port)
		if err != nil {
			h.res.Violatef("skew check %s:%d: %v", l[0].Switch, l[0].Port, err)
			continue
		}
		if skew != nil {
			h.res.Violatef("port keys not paired after recovery: %v", skew)
		}
	}

	o := h.n.Ctrl.Observer()
	events := o.Audit.ByType(obs.EvLinkState)
	for _, e := range events {
		from, to := fabric.TransitionPair(e.Value)
		h.res.Tracef("link %s %v->%v cause=%s epoch=%d", e.Actor, from, to, e.Cause, e.Seq)
		if from == to {
			h.res.Violatef("link_state event for %s is not a transition (%v->%v)", e.Actor, from, to)
		}
		if to == fabric.Quarantined {
			h.res.Quarantines++
		}
	}
	h.res.AuditReconciled("final", o)
	h.res.Transitions = o.Metrics.Counter("fabric.transitions").Load()
	if h.res.Quarantines == 0 {
		h.res.Violatef("scenario %s never quarantined a link", h.o.Scenario)
	}
	h.res.Repairs = o.Metrics.Counter("fabric.repairs_ok").Load()
	if h.res.Repairs == 0 {
		h.res.Violatef("no successful port-key repair in the whole run")
	}
	if h.n.TotalAlerts() == 0 {
		h.res.Violatef("forged probes raised no alerts")
	}
	h.res.Delivered = h.n.DstDelivered
	if h.res.Delivered == 0 {
		h.res.Violatef("no data delivered across the degraded fabric")
	}
	h.res.Tracef("done: transitions=%d quarantines=%d repairs=%d delivered=%d violations=%d",
		h.res.Transitions, h.res.Quarantines, h.res.Repairs,
		h.res.Delivered, len(h.res.Violations))
}

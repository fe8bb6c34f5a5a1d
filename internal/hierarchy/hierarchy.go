package hierarchy

import (
	"fmt"
	"time"

	"p4auth/internal/core"
	"p4auth/internal/crypto"
	"p4auth/internal/deploy"
	"p4auth/internal/ha"
	"p4auth/internal/netsim"
	"p4auth/internal/obs"
	"p4auth/internal/pisa"
	"p4auth/internal/statestore"
)

// Config sizes a hierarchical control plane over a k-ary fat tree with
// k = Pods. The zero value of every field selects a default.
type Config struct {
	// Seed drives every random choice (controller nonces, broker keys).
	// Equal configs must produce equal runs.
	Seed uint64
	// Pods is k: the pod count, and half of it the per-pod edge and agg
	// counts (default 4; must be even, 2..8).
	Pods int
}

// The tier sizes and timings of every hierarchy.
const (
	// podReplicas is the per-pod local controller group size.
	podReplicas = 2
	// globalReplicas is the global broker group size.
	globalReplicas = 3
	// leaseTTL is the lease validity window of every tier.
	leaseTTL = 5 * time.Millisecond
	// wanDelay is the one-way pod<->global WAN latency.
	wanDelay = time.Millisecond
	// latEntries sizes the per-switch "lat" demo register.
	latEntries = 8
)

// CrossLink is one inter-pod agg-core link: the agg end belongs to the
// initiator pod, the core end to the owner pod, and only the broker may
// marry the two key slots.
type CrossLink struct {
	A  string // agg-side switch (initiator pod)
	PA int    // agg-side port
	B  string // core-side switch (owner pod)
	PB int    // core-side port
	// Initiator and Owner are the pod ids of the two ends.
	Initiator, Owner uint8
	// Label is the stable link name used in traces and audits.
	Label string
}

// Broker RPC bounds. All deterministic: fixed per-try timeouts, fixed
// attempt counts, exponential backoff between tries.
const (
	grantTimeout  = 6 * time.Millisecond
	grantAttempts = 3
	exchTimeout   = 16 * time.Millisecond
	exchAttempts  = 3
	relayTimeout  = 5 * time.Millisecond
	relayAttempts = 2
	backoffBase   = 2 * time.Millisecond
)

// ReconvergePerLink bounds, per cross link, the virtual time from a WAN
// heal or an election to the link back on one committed key: one
// first-try grant plus one first-try exchange RPC.
const ReconvergePerLink = grantTimeout + exchTimeout

// heartbeatEvery is the lease-renewal cadence relative to the TTL.
const heartbeatDivisor = 2

// Hierarchy is a built two-tier control plane: per-pod replica groups
// over prefixed store namespaces, a global broker group, the fat-tree
// data plane, and the WAN star carrying broker RPCs.
type Hierarchy struct {
	cfg Config
	// Net owns the WAN simulator; Sim is its clock and event loop.
	Net *netsim.Network
	Sim *netsim.Sim
	// Ob is the shared observer: one audit trail and metric set spans
	// both tiers, so reconciliation can be exact.
	Ob *obs.Observer
	// Store is the shared backing store (prefixed per tier).
	Store statestore.LeaseStore
	// Global is the broker tier.
	Global *Global
	// Pods are the local tiers, indexed by pod id.
	Pods []*Pod

	switches map[string]*deploy.Switch
	names    []string // all switch names, deterministic order
	cross    []CrossLink
	// byAgg finds a cross link from its initiator end (A, PA).
	byAgg map[string]*CrossLink

	heartbeats int
}

// Build constructs the full hierarchy: switches, intra-pod links,
// per-pod and global replica groups, WAN star, broker keys. Nothing is
// activated — call Bootstrap next.
func Build(cfg Config) (*Hierarchy, error) {
	if cfg.Pods == 0 {
		cfg.Pods = 4
	}
	if cfg.Pods < 2 || cfg.Pods > 8 || cfg.Pods%2 != 0 {
		return nil, fmt.Errorf("hierarchy: pods must be even in 2..8, got %d", cfg.Pods)
	}

	h := &Hierarchy{
		cfg:      cfg,
		Net:      netsim.NewNetwork(),
		Ob:       obs.NewObserver(0),
		Store:    statestore.NewMem(),
		switches: map[string]*deploy.Switch{},
		byAgg:    map[string]*CrossLink{},
	}
	h.Sim = h.Net.Sim

	half := cfg.Pods / 2
	// Switch inventory: per pod, `half` edges and `half` aggs; half*half
	// cores, core j owned by pod j%Pods. Every pod tier owns its own
	// edges and aggs plus the cores assigned to it.
	podSwitches := make([][]string, cfg.Pods)
	build := func(name string) error {
		s, err := deploy.Build(deploy.SwitchSpec{
			Name:  name,
			Ports: cfg.Pods + 2,
			Registers: []*pisa.RegisterDef{
				{Name: "lat", Width: 32, Entries: latEntries},
			},
		})
		if err != nil {
			return err
		}
		h.switches[name] = s
		h.names = append(h.names, name)
		return nil
	}
	for p := 0; p < cfg.Pods; p++ {
		for i := 0; i < half; i++ {
			for _, n := range []string{fmt.Sprintf("e%d_%d", p, i), fmt.Sprintf("a%d_%d", p, i)} {
				if err := build(n); err != nil {
					return nil, err
				}
			}
			podSwitches[p] = append(podSwitches[p],
				fmt.Sprintf("e%d_%d", p, i), fmt.Sprintf("a%d_%d", p, i))
		}
	}
	for j := 0; j < half*half; j++ {
		name := fmt.Sprintf("c%d", j)
		if err := build(name); err != nil {
			return nil, err
		}
		podSwitches[j%cfg.Pods] = append(podSwitches[j%cfg.Pods], name)
	}

	// Link plan. Intra-pod: every edge to every agg of its pod, plus the
	// agg-core links whose core happens to be owned by the same pod.
	// Cross-pod: the remaining agg-core links, established only through
	// the broker.
	type intraLink struct {
		a  string
		pa int
		b  string
		pb int
	}
	podIntra := make([][]intraLink, cfg.Pods)
	for p := 0; p < cfg.Pods; p++ {
		for e := 0; e < half; e++ {
			for a := 0; a < half; a++ {
				podIntra[p] = append(podIntra[p], intraLink{
					a:  fmt.Sprintf("e%d_%d", p, e),
					pa: a + 1,
					b:  fmt.Sprintf("a%d_%d", p, a),
					pb: e + 1,
				})
			}
		}
		for a := 0; a < half; a++ {
			for j := 0; j < half; j++ {
				cj := a*half + j
				agg := fmt.Sprintf("a%d_%d", p, a)
				core := fmt.Sprintf("c%d", cj)
				pa, pb := half+1+j, p+1
				owner := uint8(cj % cfg.Pods)
				if int(owner) == p {
					podIntra[p] = append(podIntra[p], intraLink{a: agg, pa: pa, b: core, pb: pb})
					continue
				}
				cl := CrossLink{
					A: agg, PA: pa, B: core, PB: pb,
					Initiator: uint8(p), Owner: owner,
					Label: fmt.Sprintf("%s:%d-%s:%d", agg, pa, core, pb),
				}
				h.cross = append(h.cross, cl)
			}
		}
	}
	for i := range h.cross {
		h.byAgg[fmt.Sprintf("%s:%d", h.cross[i].A, h.cross[i].PA)] = &h.cross[i]
	}

	// Broker keys: one pairwise symmetric key per pod<->global pair,
	// KDF-derived from the seed. Pods hold only their own; the global
	// tier holds all.
	master := crypto.KDF{Personalization: 0xB120_4B52_0001}.Derive(cfg.Seed, 0xB0B0)
	podKeys := make([]uint64, cfg.Pods)
	for p := range podKeys {
		podKeys[p] = crypto.KDF{Personalization: 0xB120_4B52_0002}.Derive(master, uint64(p))
	}

	// Global tier first (the WAN star's hub).
	g, err := newGlobal(h, podKeys)
	if err != nil {
		return nil, err
	}
	h.Global = g

	// Pod tiers: replica groups over prefixed store views, intra links
	// connected on every replica (ConnectSwitches needs both ends in one
	// controller — true only for intra-pod links).
	for p := 0; p < cfg.Pods; p++ {
		pod, err := newPod(h, uint8(p), podSwitches[p], podKeys[p])
		if err != nil {
			return nil, err
		}
		for _, r := range pod.Group.Replicas() {
			for _, il := range podIntra[p] {
				if err := r.Controller().ConnectSwitches(il.a, il.pa, il.b, il.pb, 50*time.Microsecond); err != nil {
					return nil, fmt.Errorf("hierarchy: pod %d intra link %s:%d-%s:%d: %w",
						p, il.a, il.pa, il.b, il.pb, err)
				}
			}
		}
		h.Pods = append(h.Pods, pod)
	}

	// WAN star: wan-pod{p} port 1 <-> wan-global port p+1. Broker RPCs
	// are the ONLY traffic here; C-DP runs on the intra-pod transports.
	for p := 0; p < cfg.Pods; p++ {
		h.Net.MustConnect(h.Pods[p].NodeName(), 1, g.nodeName(), p+1, wanDelay, 0)
	}
	return h, nil
}

// Bootstrap activates rank 0 in every tier, initializes all intra-pod
// keys, and starts the lease heartbeat. Cross-pod links are NOT
// established — call EstablishAllCross (or establish selectively).
func (h *Hierarchy) Bootstrap() error {
	if _, err := h.Global.Group.Bootstrap(); err != nil {
		return fmt.Errorf("hierarchy: global bootstrap: %w", err)
	}
	for _, p := range h.Pods {
		act, err := p.Group.Bootstrap()
		if err != nil {
			return fmt.Errorf("hierarchy: pod %d bootstrap: %w", p.ID, err)
		}
		if _, err := act.Controller().InitAllKeys(); err != nil {
			return fmt.Errorf("hierarchy: pod %d key init: %w", p.ID, err)
		}
	}
	h.armHeartbeat()
	return nil
}

// armHeartbeat schedules the recurring lease renewal: every TTL/2 each
// tier's live active renews its grant. A killed active simply stops
// renewing and its lease runs out — exactly the failure-detection bound
// the election logic waits for.
func (h *Hierarchy) armHeartbeat() {
	h.Sim.After(leaseTTL/heartbeatDivisor, func() {
		h.heartbeats++
		renew := func(g *ha.Group) {
			a := g.Active()
			if a == nil || a.Controller().Killed() {
				return
			}
			// Renewal failure (deposed, store dark) is not an error here:
			// the fence already refuses the replica's writes, and the next
			// election resolves the tenure.
			_ = a.Renew()
		}
		renew(h.Global.Group)
		for _, p := range h.Pods {
			renew(p.Group)
		}
		h.armHeartbeat()
	})
}

// CrossLinks returns the inter-pod agg-core links in deterministic
// order (do not mutate).
func (h *Hierarchy) CrossLinks() []CrossLink { return h.cross }

// SwitchNames returns every switch name in build order.
func (h *Hierarchy) SwitchNames() []string { return h.names }

// Switch returns a built switch by name, or nil.
func (h *Hierarchy) Switch(name string) *deploy.Switch { return h.switches[name] }

// Pod returns the local tier of the given pod id.
func (h *Hierarchy) Pod(id int) *Pod { return h.Pods[id] }

// EstablishAllCross establishes every cross-pod link through the broker
// in deterministic order, returning on the first failure.
func (h *Hierarchy) EstablishAllCross() error {
	for i := range h.cross {
		cl := &h.cross[i]
		if err := h.Pods[cl.Initiator].EstablishCross(cl); err != nil {
			return fmt.Errorf("hierarchy: establish %s: %w", cl.Label, err)
		}
	}
	return nil
}

// CrossLinkVersions reads both ends' key-slot install counters straight
// from the data planes — the fabric supervisor telemetry the broker
// invariants are checked against. Equal counters mean the link is on
// one committed key version; unequal counters pinpoint an interrupted
// exchange.
func (h *Hierarchy) CrossLinkVersions(cl *CrossLink) (va, vb uint8, err error) {
	a, err := h.switches[cl.A].Host.SW.RegisterRead(core.RegVer, cl.PA)
	if err != nil {
		return 0, 0, err
	}
	b, err := h.switches[cl.B].Host.SW.RegisterRead(core.RegVer, cl.PB)
	if err != nil {
		return 0, 0, err
	}
	return uint8(a), uint8(b), nil
}

// CrossLinkKeys reads the current-version port keys of both ends (the
// register bank the live version selects). Zero means no key installed.
func (h *Hierarchy) CrossLinkKeys(cl *CrossLink) (ka, kb uint64, err error) {
	va, vb, err := h.CrossLinkVersions(cl)
	if err != nil {
		return 0, 0, err
	}
	bank := func(v uint8) string {
		if v%2 == 1 {
			return core.RegKeysV1
		}
		return core.RegKeysV0
	}
	ka, err = h.switches[cl.A].Host.SW.RegisterRead(bank(va), cl.PA)
	if err != nil {
		return 0, 0, err
	}
	kb, err = h.switches[cl.B].Host.SW.RegisterRead(bank(vb), cl.PB)
	if err != nil {
		return 0, 0, err
	}
	return ka, kb, nil
}

// WANLink returns the netsim link between a pod's WAN node and the
// global hub — the injection point for partitions and latency spikes.
func (h *Hierarchy) WANLink(pod int) *netsim.Link {
	return h.Net.LinkBetween(h.Pods[pod].NodeName(), h.Global.nodeName())
}

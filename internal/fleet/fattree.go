// Package fleet is the fleet-scale scenario harness: it builds k-ary
// fat-tree fabrics of HULA switches over the netsim engine and runs
// every protected application of the paper's Table I across them
// under a composed, seeded fault schedule — attacker, link flaps,
// partitions, controller kills, switch crashes — emitting a survival
// matrix per app × fault × protection-on/off.
//
// Topology (standard k-ary fat tree, k even): k pods, each with k/2
// edge (ToR) and k/2 aggregation switches; (k/2)² core switches. Edge
// e connects up to every agg in its pod; agg a connects up to core
// group a (cores (a-1)·k/2+1 .. a·k/2). One aggregate host hangs off
// each edge. Probes flood up-then-down (edge → agg → core → agg →
// edge), which is loop-free by construction.
//
// Port plan:
//
//	edge:  1..k/2 → aggs (uplinks), k/2+1 → host, k/2+2 generator
//	agg:   1..k/2 → edges (down),  k/2+1..k → cores (up)
//	core:  port p → pod p's agg
//
// Every switch-switch link is registered with the fabric controller
// (ConnectSwitches), so InitAllKeys establishes the per-link port-key
// pairing of the DP-DP channel.
package fleet

import (
	"fmt"
	"time"

	"p4auth/internal/controller"
	"p4auth/internal/crypto"
	"p4auth/internal/deploy"
	"p4auth/internal/hula"
	"p4auth/internal/netsim"
	"p4auth/internal/statestore"
)

// TopoConfig parameterizes the fat tree.
type TopoConfig struct {
	// K is the fat-tree arity (even, >= 4). k=4 → 20 switches; k=8 → 80.
	K int
	// LinkDelay and LinkBandwidthBps apply to every fabric link.
	LinkDelay        time.Duration
	LinkBandwidthBps float64
	// FailTimeoutNs ages out best paths that stop being refreshed;
	// zero defaults to 2 ms so failover lands inside a harness window.
	FailTimeoutNs uint64
	// Secure weaves P4Auth in (per-hop probe auth, authenticated C-DP).
	Secure bool
	// Seed drives every PRNG in the fabric.
	Seed uint64
}

// DefaultTopoConfig is a secure fabric of arity k.
func DefaultTopoConfig(k int) TopoConfig {
	return TopoConfig{
		K:                k,
		LinkDelay:        5 * time.Microsecond,
		LinkBandwidthBps: 10e9,
		Secure:           true,
		Seed:             0xFA77,
	}
}

// Link records one fabric link for the wiring golden and fault schedule.
type Link struct {
	A     string
	APort int
	B     string
	BPort int
	L     *netsim.Link
}

// Topology is a deployed fat-tree fabric.
type Topology struct {
	Cfg   TopoConfig
	Net   *netsim.Network
	Ctrl  *controller.Controller
	Store *statestore.Mem
	// Switches maps name → switch; Edges/Aggs/Cores list names in
	// deterministic construction order.
	Switches map[string]*hula.Switch
	Edges    []string
	Aggs     []string
	Cores    []string
	// Hosts maps edge name → its host sink.
	Hosts map[string]*HostSink
	// Links lists every switch-switch link in construction order.
	Links []Link
	// TorID maps edge name → its HULA ToR identifier.
	TorID map[string]uint16

	// probes maps edge name → the origin probe InjectProbe sends, built
	// once; data is SendData's packet buffer. Both are only lent to the
	// pipeline: every emission is copied by netsim.Send.
	probes map[string][]byte
	data   []byte
}

// HostSink counts traffic delivered to one edge's aggregate host.
type HostSink struct {
	Packets uint64
	Bytes   uint64
}

// Naming helpers. Pods and indices are 0-based in names.
func edgeName(pod, i int) string { return fmt.Sprintf("e%d_%d", pod, i) }
func aggName(pod, i int) string  { return fmt.Sprintf("a%d_%d", pod, i) }
func coreName(c int) string      { return fmt.Sprintf("c%d", c) }
func hostName(pod, i int) string { return fmt.Sprintf("h%d_%d", pod, i) }

// EdgeName returns the name of edge i (0-based) in pod (0-based).
func EdgeName(pod, i int) string { return edgeName(pod, i) }

// AggName returns the name of agg i (0-based) in pod (0-based).
func AggName(pod, i int) string { return aggName(pod, i) }

// CoreName returns the name of core c (0-based).
func CoreName(c int) string { return coreName(c) }

// HostName returns the name of the host at edge i in pod.
func HostName(pod, i int) string { return hostName(pod, i) }

// BuildFatTree deploys the fabric: switches, hosts, links, probe flood
// rules, controller registrations, and (when secure) the full per-link
// key establishment.
func BuildFatTree(cfg TopoConfig) (*Topology, error) {
	if cfg.K < 4 || cfg.K%2 != 0 {
		return nil, fmt.Errorf("fleet: fat-tree arity must be even and >= 4, got %d", cfg.K)
	}
	if cfg.LinkDelay <= 0 {
		return nil, fmt.Errorf("fleet: link delay must be positive")
	}
	k := cfg.K
	half := k / 2
	numEdges := k * half

	t := &Topology{
		Cfg:      cfg,
		Net:      netsim.NewNetwork(),
		Store:    statestore.NewMem(),
		Switches: make(map[string]*hula.Switch),
		Hosts:    make(map[string]*HostSink),
		TorID:    make(map[string]uint16),
		probes:   make(map[string][]byte),
	}

	ctrl := controller.New(crypto.NewSeededRand(cfg.Seed*1000003 + 1))
	ctrl.SetRetryPolicy(controller.ResilientRetryPolicy())
	ctrl.UseClock(t.Net.Sim)
	if err := ctrl.EnableCrashSafety(t.Store); err != nil {
		return nil, err
	}
	t.Ctrl = ctrl

	failTimeout := cfg.FailTimeoutNs
	if failTimeout == 0 {
		failTimeout = 2_000_000
	}
	addSwitch := func(name string, p hula.Params) error {
		p.Secure = cfg.Secure
		p.MaxTors = numEdges + 1
		p.FailTimeoutNs = failTimeout
		sw, err := hula.NewSwitch(name, p, cfg.Seed+uint64(len(t.Switches))*0x9E3779B9+1)
		if err != nil {
			return err
		}
		t.Switches[name] = sw
		t.Net.AddNode(name, sw.Node)
		return ctrl.Register(name, sw.Host, sw.Cfg, 50*time.Microsecond)
	}

	// Switches: edges and aggs per pod, then cores. ToR IDs are 1-based
	// in pod-major order; aggs and cores get IDs past the ToR range so
	// no data destination ever matches them.
	nextTor := 1
	for pod := 0; pod < k; pod++ {
		for i := 0; i < half; i++ {
			name := edgeName(pod, i)
			p := hula.DefaultParams(nextTor, half+1) // uplinks + host port
			t.TorID[name] = uint16(nextTor)
			probe, err := hula.ProbePacket(uint16(nextTor), cfg.Secure)
			if err != nil {
				return nil, err
			}
			t.probes[name] = probe
			nextTor++
			if err := addSwitch(name, p); err != nil {
				return nil, err
			}
			t.Edges = append(t.Edges, name)
		}
		for i := 0; i < half; i++ {
			name := aggName(pod, i)
			p := hula.DefaultParams(numEdges+1+pod*half+i, k)
			p.HostPort = 0 // aggs are never destinations
			if err := addSwitch(name, p); err != nil {
				return nil, err
			}
			t.Aggs = append(t.Aggs, name)
		}
	}
	for c := 0; c < half*half; c++ {
		name := coreName(c)
		p := hula.DefaultParams(numEdges+k*half+1+c, k)
		p.HostPort = 0
		if err := addSwitch(name, p); err != nil {
			return nil, err
		}
		t.Cores = append(t.Cores, name)
	}

	connect := func(a string, pa int, b string, pb int) error {
		l, err := t.Net.Connect(a, pa, b, pb, cfg.LinkDelay, cfg.LinkBandwidthBps)
		if err != nil {
			return err
		}
		if err := ctrl.ConnectSwitches(a, pa, b, pb, cfg.LinkDelay); err != nil {
			return err
		}
		t.Links = append(t.Links, Link{A: a, APort: pa, B: b, BPort: pb, L: l})
		return nil
	}

	// Edge → agg (intra-pod), agg → core.
	for pod := 0; pod < k; pod++ {
		for e := 0; e < half; e++ {
			for a := 0; a < half; a++ {
				// Edge uplink a+1 ↔ agg down port e+1.
				if err := connect(edgeName(pod, e), a+1, aggName(pod, a), e+1); err != nil {
					return nil, err
				}
			}
		}
		for a := 0; a < half; a++ {
			for j := 0; j < half; j++ {
				// Agg up port half+j+1 ↔ core (a*half+j) port pod+1.
				if err := connect(aggName(pod, a), half+j+1, coreName(a*half+j), pod+1); err != nil {
					return nil, err
				}
			}
		}
	}

	// Hosts: sinks counting delivered traffic.
	for pod := 0; pod < k; pod++ {
		for e := 0; e < half; e++ {
			sink := &HostSink{}
			hn := hostName(pod, e)
			t.Hosts[edgeName(pod, e)] = sink
			t.Net.AddNode(hn, netsim.HandlerFunc(func(_ *netsim.Network, _ *netsim.Node, _ int, data []byte) {
				sink.Packets++
				sink.Bytes += uint64(len(data))
			}))
			if _, err := t.Net.Connect(edgeName(pod, e), half+1, hn, 1, cfg.LinkDelay, 0); err != nil {
				return nil, err
			}
		}
	}

	if err := t.installProbeFloods(); err != nil {
		return nil, err
	}
	if cfg.Secure {
		if _, err := ctrl.InitAllKeys(); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// installProbeFloods programs the up-then-down probe replication rules.
// Edges relay what they originate; aggs and cores are transit switches
// that re-advertise only a probe they accept as their best path, so an
// agg passes one of the two copies of a remote ToR's probe its cores
// deliver, and every link still carries the best path's probe each
// period while that path lives (TestProbeFailoverGap pins the gap after
// it fails).
func (t *Topology) installProbeFloods() error {
	k := t.Cfg.K
	half := k / 2
	upPorts := make([]int, half) // edge uplinks / agg core ports
	for i := range upPorts {
		upPorts[i] = i + 1
	}
	for pod := 0; pod < k; pod++ {
		for e := 0; e < half; e++ {
			sw := t.Switches[edgeName(pod, e)]
			// Originated probes flood up every uplink; arriving probes
			// are consumed (the edge is the ToR).
			if err := sw.SetProbeFlood(sw.Params.GeneratorPort, upPorts); err != nil {
				return err
			}
			for p := 1; p <= half; p++ {
				if err := sw.SetProbeFlood(p, nil); err != nil {
					return err
				}
			}
		}
		for a := 0; a < half; a++ {
			sw := t.Switches[aggName(pod, a)]
			// From an edge: up to all cores and down to the other edges.
			for e := 0; e < half; e++ {
				var out []int
				for x := 0; x < half; x++ {
					if x != e {
						out = append(out, x+1)
					}
				}
				for j := 0; j < half; j++ {
					out = append(out, half+j+1)
				}
				if err := sw.SetProbeAdvertise(e+1, out); err != nil {
					return err
				}
			}
			// From a core: down to every edge (never back up).
			downPorts := make([]int, half)
			for i := range downPorts {
				downPorts[i] = i + 1
			}
			for j := 0; j < half; j++ {
				if err := sw.SetProbeAdvertise(half+j+1, downPorts); err != nil {
					return err
				}
			}
		}
	}
	for c := 0; c < half*half; c++ {
		sw := t.Switches[coreName(c)]
		// From pod p: down to every other pod.
		for p := 1; p <= k; p++ {
			var out []int
			for q := 1; q <= k; q++ {
				if q != p {
					out = append(out, q)
				}
			}
			if err := sw.SetProbeAdvertise(p, out); err != nil {
				return err
			}
		}
	}
	return nil
}

// InjectProbe originates one probe at the named edge for its own ToR ID
// (probes advertise the path back to their originator).
func (t *Topology) InjectProbe(edge string) error {
	pkt, ok := t.probes[edge]
	if !ok {
		return fmt.Errorf("fleet: unknown edge switch %q", edge)
	}
	sw := t.Switches[edge]
	sw.Node.Inject(t.Net, t.Net.Node(edge), sw.Params.GeneratorPort, pkt)
	return nil
}

// SendData injects one data packet at the source edge's host port.
func (t *Topology) SendData(edge string, dst uint16, flow uint32, size int) error {
	sw, ok := t.Switches[edge]
	if !ok {
		return fmt.Errorf("fleet: unknown switch %q", edge)
	}
	t.data = hula.AppendDataPacket(t.data[:0], dst, flow, size)
	sw.Node.Inject(t.Net, t.Net.Node(edge), sw.Params.HostPort, t.data)
	return nil
}

// SaveDeviceStates snapshots every switch's register file into the
// topology store (warm-reboot images for CrashSwitch). Secure fabrics
// only — the snapshot captures the P4Auth register block.
func (t *Topology) SaveDeviceStates(takenNs uint64) error {
	if !t.Cfg.Secure {
		return nil
	}
	for name, sw := range t.Switches {
		ds := &deploy.Switch{Host: sw.Host, Cfg: sw.Cfg}
		if err := ds.SaveState(t.Store, "dev/"+name, takenNs); err != nil {
			return fmt.Errorf("fleet: save %s: %w", name, err)
		}
	}
	return nil
}

// CrashSwitch kills one switch: all I/O toward it goes dark.
func (t *Topology) CrashSwitch(name string) error {
	sw, ok := t.Switches[name]
	if !ok {
		return fmt.Errorf("fleet: unknown switch %q", name)
	}
	sw.Host.SetDown(true)
	return nil
}

// RebootSwitch brings a crashed switch back. Secure fabrics warm-boot
// from the stored snapshot and run the controller's revival protocol;
// insecure ones just come back up (nothing authenticated to restore).
func (t *Topology) RebootSwitch(name string) error {
	sw, ok := t.Switches[name]
	if !ok {
		return fmt.Errorf("fleet: unknown switch %q", name)
	}
	if !t.Cfg.Secure {
		sw.Host.ClearCache()
		sw.Host.SetDown(false)
		return nil
	}
	ds := &deploy.Switch{Host: sw.Host, Cfg: sw.Cfg}
	if _, err := ds.RebootFromStore(t.Store, "dev/"+name); err != nil {
		return fmt.Errorf("fleet: reboot %s: %w", name, err)
	}
	if t.Ctrl.Killed() {
		return nil // a dead controller revives nothing; RecoverController will
	}
	if _, err := t.Ctrl.ReviveSwitch(name); err != nil {
		return fmt.Errorf("fleet: revive %s: %w", name, err)
	}
	return nil
}

// RecoverController replaces a killed controller: a fresh process
// attaches the same durable store, re-registers the whole fabric, and
// (secure) runs warm recovery over every switch.
func (t *Topology) RecoverController() error {
	ctrl := controller.New(crypto.NewSeededRand(t.Cfg.Seed*1000003 + 2))
	ctrl.SetRetryPolicy(controller.ResilientRetryPolicy())
	ctrl.UseClock(t.Net.Sim)
	if err := ctrl.EnableCrashSafety(t.Store); err != nil {
		return err
	}
	names := append(append(append([]string{}, t.Edges...), t.Aggs...), t.Cores...)
	for _, name := range names {
		sw := t.Switches[name]
		if err := ctrl.Register(name, sw.Host, sw.Cfg, 50*time.Microsecond); err != nil {
			return fmt.Errorf("fleet: re-register %s: %w", name, err)
		}
	}
	for _, lk := range t.Links {
		if err := ctrl.ConnectSwitches(lk.A, lk.APort, lk.B, lk.BPort, t.Cfg.LinkDelay); err != nil {
			return fmt.Errorf("fleet: reconnect %s-%s: %w", lk.A, lk.B, err)
		}
	}
	if t.Cfg.Secure {
		if _, err := ctrl.RecoverAll(); err != nil {
			return fmt.Errorf("fleet: recover fabric: %w", err)
		}
	}
	t.Ctrl = ctrl
	return nil
}

// PodMembers returns every switch and host of one pod (the partition
// fault's group).
func (t *Topology) PodMembers(pod int) []string {
	half := t.Cfg.K / 2
	var out []string
	for i := 0; i < half; i++ {
		out = append(out, edgeName(pod, i), aggName(pod, i), hostName(pod, i))
	}
	return out
}

// PodOf reports the pod of an edge or agg switch name, or -1.
func (t *Topology) PodOf(name string) int {
	var pod, idx int
	if n, _ := fmt.Sscanf(name, "e%d_%d", &pod, &idx); n == 2 {
		return pod
	}
	if n, _ := fmt.Sscanf(name, "a%d_%d", &pod, &idx); n == 2 {
		return pod
	}
	return -1
}

// TotalAlerts sums P4Auth alerts across the fabric.
func (t *Topology) TotalAlerts() int {
	total := 0
	for _, s := range t.Switches {
		total += s.Alerts
	}
	return total
}

// DeliveredBytes sums host-delivered bytes fabric-wide.
func (t *Topology) DeliveredBytes() uint64 {
	var total uint64
	for _, h := range t.Hosts {
		total += h.Bytes
	}
	return total
}

// UplinkShares reports the fraction of bytes an edge pushed onto each of
// its uplink aggs, in agg order.
func (t *Topology) UplinkShares(edge string) ([]float64, error) {
	pod := t.PodOf(edge)
	if pod < 0 {
		return nil, fmt.Errorf("fleet: %q is not an edge", edge)
	}
	half := t.Cfg.K / 2
	bytes := make([]uint64, half)
	var total uint64
	for a := 0; a < half; a++ {
		l := t.Net.LinkBetween(edge, aggName(pod, a))
		if l == nil {
			return nil, fmt.Errorf("fleet: no link %s-%s", edge, aggName(pod, a))
		}
		b, _, err := l.TxStats(edge)
		if err != nil {
			return nil, err
		}
		bytes[a] = b
		total += b
	}
	shares := make([]float64, half)
	for a := range bytes {
		if total > 0 {
			shares[a] = float64(bytes[a]) / float64(total)
		}
	}
	return shares, nil
}

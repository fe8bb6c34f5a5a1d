// Package netsim is a deterministic virtual-time network simulator: an
// event queue, nodes, and duplex links with propagation delay, bandwidth
// (serialization + queueing), utilization accounting, and per-direction
// taps where a man-in-the-middle can observe, rewrite, or drop packets in
// flight.
//
// The simulator replaces the paper's physical testbed links; a link tap
// gives an adversary exactly the capability of the paper's on-link MitM
// (§II-A): it sees the bytes a switch put on the wire and decides what the
// next switch receives.
package netsim

import (
	"container/heap"
	"fmt"
	"math"
	"sync"
	"time"
)

// Sim is a discrete-event simulator. The zero value is not usable; call
// NewSim.
//
// Scheduling (At/After/Send) is safe to call from any goroutine, but
// event EXECUTION stays single-threaded: one goroutine drives
// Step/Run/RunUntil and event functions run on it with no simulator lock
// held, so handlers re-enter Send freely. Events run in (time, then
// schedule sequence) order.
type Sim struct {
	mu  sync.Mutex
	now time.Duration
	pq  eventHeap
	seq uint64
}

// NewSim returns an empty simulator at virtual time zero.
func NewSim() *Sim {
	return &Sim{}
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// At schedules fn at absolute virtual time t (clamped to now).
func (s *Sim) At(t time.Duration, fn func()) {
	s.mu.Lock()
	if t < s.now {
		t = s.now
	}
	s.seq++
	heap.Push(&s.pq, &event{at: t, seq: s.seq, fn: fn})
	s.mu.Unlock()
}

// After schedules fn d after the current virtual time.
func (s *Sim) After(d time.Duration, fn func()) {
	s.mu.Lock()
	t := s.now + d
	if t < s.now {
		t = s.now
	}
	s.seq++
	heap.Push(&s.pq, &event{at: t, seq: s.seq, fn: fn})
	s.mu.Unlock()
}

// Step executes the next event; it reports false when the queue is empty.
// The event function runs with the simulator unlocked.
func (s *Sim) Step() bool {
	s.mu.Lock()
	if s.pq.Len() == 0 {
		s.mu.Unlock()
		return false
	}
	ev := heap.Pop(&s.pq).(*event)
	s.now = ev.at
	s.mu.Unlock()
	ev.fn()
	return true
}

// NextEventAt reports the timestamp of the earliest pending event, or
// false when the queue is empty. Blocking RPC loops use it to run the
// simulator forward event-by-event up to a deadline without overshooting
// it.
func (s *Sim) NextEventAt() (time.Duration, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pq.Len() == 0 {
		return 0, false
	}
	return s.pq[0].at, true
}

// Run drains the event queue.
func (s *Sim) Run() {
	for s.Step() {
	}
}

// Advance executes events within the next d of virtual time and moves the
// clock forward by d — a virtual sleep, used by protocol engines (e.g. the
// controller's retransmission backoff) that wait on the simulated clock.
func (s *Sim) Advance(d time.Duration) {
	s.mu.Lock()
	t := s.now + d
	s.mu.Unlock()
	s.RunUntil(t)
}

// RunUntil executes events with timestamps <= t, then advances the clock
// to t.
func (s *Sim) RunUntil(t time.Duration) {
	for {
		s.mu.Lock()
		if s.pq.Len() == 0 || s.pq[0].at > t {
			s.mu.Unlock()
			break
		}
		ev := heap.Pop(&s.pq).(*event)
		s.now = ev.at
		s.mu.Unlock()
		ev.fn()
	}
	s.mu.Lock()
	if s.now < t {
		s.now = t
	}
	s.mu.Unlock()
}

type event struct {
	at  time.Duration
	seq uint64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Handler consumes packets delivered to a node.
type Handler interface {
	// HandlePacket is invoked at delivery time; port is the receiving
	// node's port the packet arrived on.
	HandlePacket(net *Network, node *Node, port int, data []byte)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(net *Network, node *Node, port int, data []byte)

// HandlePacket implements Handler.
func (f HandlerFunc) HandlePacket(net *Network, node *Node, port int, data []byte) {
	f(net, node, port, data)
}

// Node is a network element (switch, controller host, traffic endpoint).
type Node struct {
	Name    string
	Handler Handler
	ports   map[int]*linkEnd
}

// Tap observes and optionally rewrites a packet crossing a link direction.
// Returning nil drops the packet.
type Tap func(data []byte) []byte

// Link is a duplex link between two node ports.
type Link struct {
	sim   *Sim
	a, b  *linkEnd
	Delay time.Duration
	// Bandwidth in bits per second; 0 = infinite (no serialization).
	Bandwidth float64
	// mu guards down and both ends' queueing/utilization accounting so
	// concurrent Send calls stay race-free. Never held across tap,
	// handler, or simulator calls.
	mu sync.Mutex
	// down cuts the link (both directions) administratively; checked at
	// delivery time, so packets in flight when the link drops are lost.
	// Kept separate from taps: user-installed fault taps compose on top.
	down bool
}

type linkEnd struct {
	link      *Link
	node      *Node
	port      int
	peer      *linkEnd
	busyUntil time.Duration
	tap       Tap
	// dirDown cuts only the direction of the link that delivers INTO
	// this end's node — the asymmetric half of a WAN partition. Checked
	// at delivery time like Link.down; guarded by link.mu.
	dirDown bool
	// spikes are latency-spike windows on the direction delivering into
	// this end's node: a packet departing inside [from,to) is delayed by
	// an additional extra. Guarded by link.mu.
	spikes []latencySpike
	// utilization accounting (bytes entering the link from this end)
	ewmaBps    float64
	ewmaAt     time.Duration
	totalBytes uint64
	totalPkts  uint64
	dropped    uint64
}

// utilHalfLife is the decay constant for link utilization estimates.
const utilHalfLife = 10 * time.Millisecond

// Network owns the simulator, nodes, and links.
type Network struct {
	Sim   *Sim
	nodes map[string]*Node
	links []*Link
}

// NewNetwork returns an empty network over a fresh simulator.
func NewNetwork() *Network {
	return &Network{Sim: NewSim(), nodes: make(map[string]*Node)}
}

// AddNode registers a node; it panics on duplicate names (topology
// construction bugs should fail loudly at build time).
func (n *Network) AddNode(name string, h Handler) *Node {
	if _, dup := n.nodes[name]; dup {
		panic(fmt.Sprintf("netsim: duplicate node %q", name))
	}
	node := &Node{Name: name, Handler: h, ports: make(map[int]*linkEnd)}
	n.nodes[name] = node
	return node
}

// Node returns a registered node or nil.
func (n *Network) Node(name string) *Node { return n.nodes[name] }

// Nodes returns the number of registered nodes.
func (n *Network) Nodes() int { return len(n.nodes) }

// Connect links nodeA's portA with nodeB's portB.
func (n *Network) Connect(nodeA string, portA int, nodeB string, portB int, delay time.Duration, bandwidthBps float64) (*Link, error) {
	a, ok := n.nodes[nodeA]
	if !ok {
		return nil, fmt.Errorf("netsim: unknown node %q", nodeA)
	}
	b, ok := n.nodes[nodeB]
	if !ok {
		return nil, fmt.Errorf("netsim: unknown node %q", nodeB)
	}
	if _, used := a.ports[portA]; used {
		return nil, fmt.Errorf("netsim: %s port %d already connected", nodeA, portA)
	}
	if _, used := b.ports[portB]; used {
		return nil, fmt.Errorf("netsim: %s port %d already connected", nodeB, portB)
	}
	l := &Link{sim: n.Sim, Delay: delay, Bandwidth: bandwidthBps}
	l.a = &linkEnd{link: l, node: a, port: portA}
	l.b = &linkEnd{link: l, node: b, port: portB}
	l.a.peer, l.b.peer = l.b, l.a
	a.ports[portA] = l.a
	b.ports[portB] = l.b
	n.links = append(n.links, l)
	return l, nil
}

// MustConnect is Connect that panics on error, for topology builders.
func (n *Network) MustConnect(nodeA string, portA int, nodeB string, portB int, delay time.Duration, bandwidthBps float64) *Link {
	l, err := n.Connect(nodeA, portA, nodeB, portB, delay, bandwidthBps)
	if err != nil {
		panic(err)
	}
	return l
}

// SetTap installs (or clears, with nil) a tap on the direction of the link
// that *enters* the named node: the tap sees packets just before delivery.
func (l *Link) SetTap(towardNode string, t Tap) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch towardNode {
	case l.a.node.Name:
		l.a.tap = t
	case l.b.node.Name:
		l.b.tap = t
	default:
		return fmt.Errorf("netsim: link does not touch node %q", towardNode)
	}
	return nil
}

// Ends returns the two node names the link connects.
func (l *Link) Ends() (string, string) { return l.a.node.Name, l.b.node.Name }

// SetDown cuts (true) or restores (false) the link in both directions.
// Packets already in flight are lost when the link is down at their
// delivery time — a cut severs the fiber, not the send queue.
func (l *Link) SetDown(down bool) {
	l.mu.Lock()
	l.down = down
	l.mu.Unlock()
}

// Down reports whether the link is administratively cut.
func (l *Link) Down() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.down
}

// latencySpike is one extra-delay window on a link direction.
type latencySpike struct {
	from, to time.Duration // [from, to) in departure time
	extra    time.Duration
}

func (e *linkEnd) spikeExtra(depart time.Duration) time.Duration {
	var extra time.Duration
	for _, s := range e.spikes {
		if depart >= s.from && depart < s.to {
			extra += s.extra
		}
	}
	return extra
}

// end returns the link end that delivers into the named node.
func (l *Link) end(towardNode string) (*linkEnd, error) {
	switch towardNode {
	case l.a.node.Name:
		return l.a, nil
	case l.b.node.Name:
		return l.b, nil
	}
	return nil, fmt.Errorf("netsim: link does not touch node %q", towardNode)
}

// SetDirDown cuts (true) or restores (false) only the direction of the
// link that delivers INTO the named node, leaving the reverse direction
// untouched — the asymmetric half of a WAN partition: the victim keeps
// transmitting but hears nothing back. Like SetDown, the cut acts at
// delivery time, so packets in flight are lost.
func (l *Link) SetDirDown(towardNode string, down bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, err := l.end(towardNode)
	if err != nil {
		return err
	}
	e.dirDown = down
	return nil
}

// DirDown reports whether the direction delivering into the named node
// is administratively cut (SetDirDown; a full SetDown is reported by
// Down, not here).
func (l *Link) DirDown(towardNode string) (bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, err := l.end(towardNode)
	if err != nil {
		return false, err
	}
	return e.dirDown, nil
}

// AddLatencySpike injects a WAN latency spike on the direction of the
// link that delivers into the named node: every packet departing in
// [from, to) is delayed by an additional extra on top of propagation,
// serialization, and queueing. Spikes accumulate; overlapping windows
// add. Packets already scheduled keep their original delivery times —
// a spike stretches the path, it does not reorder history.
func (l *Link) AddLatencySpike(towardNode string, from, to, extra time.Duration) error {
	if to <= from || extra < 0 {
		return fmt.Errorf("netsim: invalid latency spike window [%v,%v) extra %v", from, to, extra)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	e, err := l.end(towardNode)
	if err != nil {
		return err
	}
	e.spikes = append(e.spikes, latencySpike{from: from, to: to, extra: extra})
	return nil
}

// ClearLatencySpikes removes all spike windows in both directions.
func (l *Link) ClearLatencySpikes() {
	l.mu.Lock()
	l.a.spikes = nil
	l.b.spikes = nil
	l.mu.Unlock()
}

// Send transmits data from node's port after delay extraDelay (the sender's
// local processing time). It returns an error if the port is unconnected.
func (n *Network) Send(node *Node, port int, data []byte, extraDelay time.Duration) error {
	end, ok := node.ports[port]
	if !ok {
		return fmt.Errorf("netsim: %s port %d not connected", node.Name, port)
	}
	l := end.link
	d := make([]byte, len(data))
	copy(d, data)

	now := n.Sim.Now()
	ready := now + extraDelay
	ser := time.Duration(0)
	if l.Bandwidth > 0 {
		ser = time.Duration(float64(len(d)*8) / l.Bandwidth * float64(time.Second))
	}
	// FIFO queueing on this direction of the link.
	l.mu.Lock()
	start := ready
	if end.busyUntil > start {
		start = end.busyUntil
	}
	depart := start + ser
	end.busyUntil = depart
	end.recordBytes(now, len(d))
	dst := end.peer
	// Latency spikes stretch this direction of the path for packets
	// departing inside a spike window (WAN fault injection).
	spike := dst.spikeExtra(depart)
	l.mu.Unlock()

	n.Sim.At(depart+l.Delay+spike, func() {
		l.mu.Lock()
		down, tap := l.down || dst.dirDown, dst.tap
		if down {
			dst.dropped++
		}
		l.mu.Unlock()
		if down {
			return
		}
		payload := d
		if tap != nil {
			payload = tap(payload)
			if payload == nil {
				l.mu.Lock()
				dst.dropped++
				l.mu.Unlock()
				return
			}
		}
		if dst.node.Handler != nil {
			dst.node.Handler.HandlePacket(n, dst.node, dst.port, payload)
		}
	})
	return nil
}

func (e *linkEnd) recordBytes(now time.Duration, n int) {
	e.totalBytes += uint64(n)
	e.totalPkts++
	// Exponentially decayed rate estimate.
	if e.ewmaAt == 0 && e.ewmaBps == 0 {
		e.ewmaAt = now
	}
	dt := now - e.ewmaAt
	if dt > 0 {
		e.ewmaBps *= math.Pow(0.5, float64(dt)/float64(utilHalfLife))
		e.ewmaAt = now
	}
	// The ln2 factor makes the steady-state estimate equal the true rate.
	e.ewmaBps += float64(n*8) * math.Ln2 / utilHalfLife.Seconds()
}

// TxStats reports bytes/packets transmitted from the named node onto this
// link, and packets dropped by a tap in the opposite direction before
// delivery to that node.
func (l *Link) TxStats(fromNode string) (bytes, packets uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch fromNode {
	case l.a.node.Name:
		return l.a.totalBytes, l.a.totalPkts, nil
	case l.b.node.Name:
		return l.b.totalBytes, l.b.totalPkts, nil
	}
	return 0, 0, fmt.Errorf("netsim: link does not touch node %q", fromNode)
}

// Utilization returns the decayed transmit rate from the named node as a
// fraction of link bandwidth (0 when bandwidth is infinite).
func (l *Link) Utilization(fromNode string) (float64, error) {
	var e *linkEnd
	switch fromNode {
	case l.a.node.Name:
		e = l.a
	case l.b.node.Name:
		e = l.b
	default:
		return 0, fmt.Errorf("netsim: link does not touch node %q", fromNode)
	}
	if l.Bandwidth <= 0 {
		return 0, nil
	}
	now := l.sim.Now()
	// Apply decay up to now without recording traffic.
	l.mu.Lock()
	rate := e.ewmaBps
	if dt := now - e.ewmaAt; dt > 0 {
		rate *= math.Pow(0.5, float64(dt)/float64(utilHalfLife))
	}
	l.mu.Unlock()
	u := rate / l.Bandwidth
	if u > 1 {
		u = 1
	}
	return u, nil
}

// LinkBetween returns the first link connecting the two named nodes, or
// nil.
func (n *Network) LinkBetween(a, b string) *Link {
	for _, l := range n.links {
		x, y := l.Ends()
		if (x == a && y == b) || (x == b && y == a) {
			return l
		}
	}
	return nil
}

// Partition cuts every link with exactly one end inside the named group,
// splitting the network two ways, and returns the links it cut (already
// -down links are not re-cut and not returned, so interleaved partitions
// heal independently). Heal the split by calling SetDown(false) on the
// returned links, or Heal to restore the whole network.
func (n *Network) Partition(group ...string) []*Link {
	in := make(map[string]bool, len(group))
	for _, name := range group {
		in[name] = true
	}
	var cut []*Link
	for _, l := range n.links {
		a, b := l.Ends()
		if in[a] != in[b] && !l.Down() {
			l.SetDown(true)
			cut = append(cut, l)
		}
	}
	return cut
}

// Heal restores every administratively-cut link — full cuts and
// asymmetric direction cuts alike — and reports how many links it
// brought back up.
func (n *Network) Heal() int {
	healed := 0
	for _, l := range n.links {
		touched := false
		if l.Down() {
			l.SetDown(false)
			touched = true
		}
		l.mu.Lock()
		if l.a.dirDown || l.b.dirDown {
			l.a.dirDown, l.b.dirDown = false, false
			touched = true
		}
		l.mu.Unlock()
		if touched {
			healed++
		}
	}
	return healed
}

// PartitionAsym cuts only the INBOUND direction of every link with
// exactly one end inside the named group: group members keep
// transmitting into the rest of the network, but hear nothing back — the
// classic asymmetric WAN failure (one-way fiber cut, unidirectional
// filtering). It returns the links it cut; heal them with
// SetDirDown(member, false) per link, or Network.Heal.
func (n *Network) PartitionAsym(group ...string) []*Link {
	in := make(map[string]bool, len(group))
	for _, name := range group {
		in[name] = true
	}
	var cut []*Link
	for _, l := range n.links {
		a, b := l.Ends()
		if in[a] == in[b] {
			continue
		}
		member := a
		if in[b] {
			member = b
		}
		if d, _ := l.DirDown(member); d {
			continue
		}
		l.SetDirDown(member, true)
		cut = append(cut, l)
	}
	return cut
}

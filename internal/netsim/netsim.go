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
//
// # Buffer lifetime
//
// Send copies its argument, so a sender may reuse its buffer as soon as
// Send returns. The copy belongs to the simulator: a Tap and a Handler are
// lent the delivered bytes until they return, may read and rewrite them in
// place, and must copy whatever they keep. Once the handler has returned
// (or the packet was dropped) the buffer goes back to the simulator's free
// list and carries a later packet. A slice a Tap returns in place of its
// argument stays the tap's own and is never recycled.
// PoisonRecycledForTest turns a kept slice into a loud failure.
//
// # Event queue
//
// Pending events sit by value in one binary heap ordered by (time, then
// schedule sequence), a total order, so the execution order does not
// depend on how the heap is laid out (testdata/queue_order.golden). A
// link delivery is a typed event pointing at a recycled packet, not a
// closure: in steady state a hop (Step, delivery, handler, Send)
// allocates nothing in this package.
package netsim

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
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
	// mu guards every field. Send holds it around Link.mu (never the
	// other way round); it is never held while an event runs.
	mu  sync.Mutex
	now time.Duration
	pq  eventQueue
	seq uint64
	// free holds the packets already delivered, by the size class of
	// their buffers, for Send to copy the next payloads into.
	free      [payloadClasses][]*packet
	freeBytes int
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
	s.schedule(event{at: t, fn: fn})
	s.mu.Unlock()
}

// After schedules fn d after the current virtual time.
func (s *Sim) After(d time.Duration, fn func()) {
	s.mu.Lock()
	s.schedule(event{at: s.now + d, fn: fn})
	s.mu.Unlock()
}

// schedule queues ev, clamped to now, behind everything already scheduled
// for the same instant. Called with s.mu held.
func (s *Sim) schedule(ev event) {
	if ev.at < s.now {
		ev.at = s.now
	}
	s.seq++
	ev.seq = s.seq
	s.pq.push(ev)
}

// runNext executes the earliest event if it is due by limit. It is entered
// and left with s.mu held and runs the event with s.mu released, so no
// caller may defer the unlock: a panicking event leaves s.mu free.
func (s *Sim) runNext(limit time.Duration) bool {
	if len(s.pq) == 0 || s.pq[0].at > limit {
		return false
	}
	ev := s.pq.pop()
	s.now = ev.at
	s.mu.Unlock()
	if ev.pkt != nil {
		ev.pkt.dst.deliver(ev.pkt.data)
	} else {
		ev.fn()
	}
	s.mu.Lock()
	if ev.pkt != nil {
		s.recycle(ev.pkt)
	}
	return true
}

// Step executes the next event; it reports false when the queue is empty.
// The event function runs with the simulator unlocked.
func (s *Sim) Step() bool {
	s.mu.Lock()
	ran := s.runNext(math.MaxInt64)
	s.mu.Unlock()
	return ran
}

// NextEventAt reports the timestamp of the earliest pending event, or
// false when the queue is empty. Blocking RPC loops use it to run the
// simulator forward event-by-event up to a deadline without overshooting
// it.
func (s *Sim) NextEventAt() (time.Duration, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pq) == 0 {
		return 0, false
	}
	return s.pq[0].at, true
}

// Run drains the event queue.
func (s *Sim) Run() {
	s.mu.Lock()
	for s.runNext(math.MaxInt64) {
	}
	s.mu.Unlock()
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
	s.mu.Lock()
	for s.runNext(t) {
	}
	if s.now < t {
		s.now = t
	}
	s.mu.Unlock()
}

// packet is a payload in flight: Send's copy of the bytes and the link end
// they are delivered into. Packets and their buffers are recycled by size
// class, so that a small payload never pins a large buffer and a large one
// never has to outgrow a small one: class c holds buffers of capacity
// minPayloadCap<<c. A payload beyond the last class is allocated and
// collected like any other slice.
type packet struct {
	dst  *linkEnd
	data []byte
}

const (
	minPayloadCap  = 64
	payloadClasses = 11 // 64 B to 64 KB
	// maxFreeBytes bounds what the free lists retain; a burst of in-flight
	// packets beyond it falls back to the allocator.
	maxFreeBytes = 4 << 20
)

// payloadClass returns the class whose buffers hold n bytes; for a
// capacity that newPacket chose, it is that buffer's own class.
func payloadClass(n int) int {
	if n <= minPayloadCap {
		return 0
	}
	return bits.Len(uint(n-1)) - bits.Len(minPayloadCap-1)
}

// newPacket returns a packet for dst holding a copy of data, recycled
// where there is one. Called with s.mu held.
func (s *Sim) newPacket(dst *linkEnd, data []byte) *packet {
	var p *packet
	if c := payloadClass(len(data)); c >= payloadClasses {
		p = &packet{data: make([]byte, len(data))}
	} else if free := s.free[c]; len(free) > 0 {
		n := len(free) - 1
		p, free[n] = free[n], nil
		s.free[c] = free[:n]
		s.freeBytes -= cap(p.data)
		p.data = p.data[:len(data)]
	} else {
		p = &packet{data: make([]byte, len(data), minPayloadCap<<c)}
	}
	p.dst = dst
	copy(p.data, data)
	return p
}

// recycle takes back a delivered packet. Called with s.mu held.
func (s *Sim) recycle(p *packet) {
	buf := p.data[:cap(p.data)]
	if poisonRecycled.Load() {
		for i := range buf {
			buf[i] = 0xA5
		}
	}
	if c := payloadClass(len(buf)); c < payloadClasses && s.freeBytes+len(buf) <= maxFreeBytes {
		s.free[c] = append(s.free[c], p)
		s.freeBytes += len(buf)
	}
}

var poisonRecycled atomic.Bool

// PoisonRecycledForTest makes every simulator overwrite a payload buffer
// with 0xA5 the moment its delivery has returned, so a Handler or Tap that
// kept the slice reads garbage at once instead of, some packets later, the
// bytes of another packet. For TestMain in _test.go files; nothing else
// calls it.
func PoisonRecycledForTest(on bool) { poisonRecycled.Store(on) }

// event is one queue slot: a timer (fn) or the delivery of a packet.
type event struct {
	at  time.Duration
	seq uint64
	fn  func()
	pkt *packet
}

// eventQueue is a binary min-heap of events by (at, seq).
type eventQueue []event

func (ev *event) before(o *event) bool {
	if ev.at != o.at {
		return ev.at < o.at
	}
	return ev.seq < o.seq
}

func (q *eventQueue) push(ev event) {
	*q = append(*q, event{})
	h := *q
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
}

// pop removes the earliest event. The vacated slot is zeroed so the queue
// keeps no reference to a function or payload that has run.
func (q *eventQueue) pop() event {
	h := *q
	n := len(h) - 1
	top, last := h[0], h[n]
	h[n] = event{}
	h = h[:n]
	*q = h
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if child+1 < n && h[child+1].before(&h[child]) {
			child++
		}
		if !h[child].before(&last) {
			break
		}
		h[i] = h[child]
		i = child
	}
	if n > 0 {
		h[i] = last
	}
	return top
}

// Handler consumes packets delivered to a node.
type Handler interface {
	// HandlePacket is invoked at delivery time; port is the receiving
	// node's port the packet arrived on. data is lent until HandlePacket
	// returns (see "Buffer lifetime" in the package doc): copy to keep.
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
// Returning nil drops the packet. data is lent until the tap returns and
// may be rewritten in place; a tap that holds a packet back keeps a copy.
type Tap func(data []byte) []byte

// Link is a duplex link between two node ports.
type Link struct {
	net   *Network
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
	// traffic accounting (bytes entering the link from this end)
	totalBytes uint64
	totalPkts  uint64
	dropped    uint64
}

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
	l := &Link{net: n, Delay: delay, Bandwidth: bandwidthBps}
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
// data is copied before Send returns.
func (n *Network) Send(node *Node, port int, data []byte, extraDelay time.Duration) error {
	end, ok := node.ports[port]
	if !ok {
		return fmt.Errorf("netsim: %s port %d not connected", node.Name, port)
	}
	l := end.link
	ser := time.Duration(0)
	if l.Bandwidth > 0 {
		ser = time.Duration(float64(len(data)*8) / l.Bandwidth * float64(time.Second))
	}
	// One critical section reads the clock, takes the packet's place on
	// the link and its place in the event queue, so concurrent senders are
	// delivered in the order they queued.
	s := n.Sim
	s.mu.Lock()
	now := s.now
	// FIFO queueing on this direction of the link.
	l.mu.Lock()
	start := now + extraDelay
	if end.busyUntil > start {
		start = end.busyUntil
	}
	depart := start + ser
	end.busyUntil = depart
	end.totalBytes += uint64(len(data))
	end.totalPkts++
	dst := end.peer
	// Latency spikes stretch this direction of the path for packets
	// departing inside a spike window (WAN fault injection).
	spike := dst.spikeExtra(depart)
	l.mu.Unlock()
	s.schedule(event{at: depart + l.Delay + spike, pkt: s.newPacket(dst, data)})
	s.mu.Unlock()
	return nil
}

// deliver hands a packet that has crossed the link to e's node, unless the
// link is cut or the tap drops it. It runs as an event, with no lock held
// across the tap and the handler.
func (e *linkEnd) deliver(data []byte) {
	l := e.link
	l.mu.Lock()
	down, tap := l.down || e.dirDown, e.tap
	if down {
		e.dropped++
	}
	l.mu.Unlock()
	if down {
		return
	}
	if tap != nil {
		data = tap(data)
		if data == nil {
			l.mu.Lock()
			e.dropped++
			l.mu.Unlock()
			return
		}
	}
	if h := e.node.Handler; h != nil {
		h.HandlePacket(l.net, e.node, e.port, data)
	}
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

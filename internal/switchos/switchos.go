// Package switchos models the switch software stack P4Auth distrusts: the
// gRPC agent, SDK, and driver layers between the control channel and the
// data plane (§II of the paper). Each layer boundary carries interposition
// hooks — the moral equivalent of the LD_PRELOAD backdoor the paper's
// threat model assumes — where an adversary with a compromised NOS can
// observe and rewrite register operations, their responses, and
// PacketOut/PacketIn traffic, all below any TLS the controller channel
// uses.
//
// Every operation returns its modeled latency so experiments composed on a
// virtual clock account for the software path the same way the paper's
// testbed does physically.
package switchos

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"p4auth/internal/core"
	"p4auth/internal/obs"
	"p4auth/internal/p4rt"
	"p4auth/internal/pisa"
)

// Boundary identifies a layer boundary where hooks can be installed.
type Boundary int

// Boundaries, top down.
const (
	// BoundaryAgentSDK sits between the gRPC server agent and the SDK.
	BoundaryAgentSDK Boundary = iota
	// BoundarySDKDriver sits between the SDK and the low-level driver.
	BoundarySDKDriver
	numBoundaries
)

// RegOp is a register operation in flight through the stack. Above the SDK
// the register is identified by ID; the SDK fills in Name. Hooks may
// mutate any field — that is the attack.
type RegOp struct {
	ID      uint32
	Name    string
	Index   uint32
	Value   uint64 // writes
	IsWrite bool
}

// Hooks are the interposition points at one boundary. Nil members pass
// through.
type Hooks struct {
	// OnRegOp sees a register request heading toward the data plane.
	OnRegOp func(op *RegOp)
	// OnRegResult sees a read result heading back to the controller.
	OnRegResult func(op *RegOp, value *uint64)
	// OnPacketOut sees a PacketOut heading to the CPU port; returning nil
	// drops it.
	OnPacketOut func(data []byte) []byte
	// OnPacketIn sees a PacketIn heading to the controller; returning nil
	// drops it.
	OnPacketIn func(data []byte) []byte
}

// Costs models the software-path latency of the stack.
type Costs struct {
	// AgentBase is the gRPC receive/dispatch cost per API request.
	AgentBase time.Duration
	// ComposeField is the per-field request compose/parse cost; reads
	// carry one field (the index), writes two (index and data) — the
	// asymmetry behind Fig. 19's read/write gap.
	ComposeField time.Duration
	// SDKBase is the SDK translation cost (ID to name, validation).
	SDKBase time.Duration
	// DriverBase is the driver call overhead.
	DriverBase time.Duration
	// PCIe is the host-to-ASIC round trip.
	PCIe time.Duration
	// PacketIOBase is the agent's PacketOut/PacketIn handling cost.
	PacketIOBase time.Duration
	// PerByte is the cost per payload byte moved through the agent.
	PerByte time.Duration
}

// DefaultCosts reflect the paper's testbed regime: a Python/protobuf
// control stack where request composition dominates API calls (the 1.7x
// read/write gap of Fig. 19 comes from composing one field versus two)
// and PTF-style packet crafting makes the PacketOut path comparable to an
// API write ("not much difference in register write throughput among
// P4Runtime, DP-REG-RW and P4Auth", §IX-B).
func DefaultCosts() Costs {
	return Costs{
		AgentBase:    18 * time.Microsecond,
		ComposeField: 200 * time.Microsecond,
		SDKBase:      9 * time.Microsecond,
		DriverBase:   7 * time.Microsecond,
		PCIe:         11 * time.Microsecond,
		PacketIOBase: 160 * time.Microsecond,
		PerByte:      220 * time.Nanosecond,
	}
}

// DefaultResponseCacheSize bounds the agent's idempotency cache (recent
// control-channel exchanges remembered for retransmission handling).
const DefaultResponseCacheSize = 128

// cachedExchange remembers one completed control-channel exchange: the
// exact request bytes and the PacketIns the agent answered with.
type cachedExchange struct {
	seq  uint32
	live bool
	req  []byte
	pins [][]byte
}

// responseCache is the agent-level idempotency cache: a retransmitted
// request (byte-identical, same seqNum) is answered from here instead of
// re-entering the pipeline, where the replay defence would alert and a
// key-exchange message would re-derive state.
//
// It is a direct-mapped ring: sequence number s lives in slot s % cap, and
// storing into an occupied slot evicts what was there, into whose buffers
// the new entry is copied, so the steady-state store path does not
// allocate. For the stream a controller produces (consecutive numbers, a
// window narrower than cap in flight) that remembers the cap newest
// exchanges. Two numbers a multiple of cap apart cannot both be
// remembered: a resend of the older one misses, re-enters the pipeline and
// is answered by its replay defence, which costs the sender one round and
// never a wrong answer, since a hit requires equal request bytes.
//
// The ring starts at firstCacheSlots and doubles, rehashing, on the first
// store that would evict a live entry for another number, so a switch that
// sees few exchanges holds few slots. Every length divides cap (a cap
// firstCacheSlots does not divide is allocated whole at once): numbers
// distinct modulo cap that share a slot force a doubling instead of an
// eviction, and numbers equal modulo cap share a slot at every length, so
// the ring remembers exactly what a ring of cap slots would.
type responseCache struct {
	mu       sync.Mutex
	entries  []cachedExchange // len divides capacity
	capacity int
}

// firstCacheSlots is the length a response cache starts at.
const firstCacheSlots = 16

func newResponseCache(capacity int) *responseCache {
	n := firstCacheSlots
	if capacity%n != 0 {
		n = capacity
	}
	return &responseCache{entries: make([]cachedExchange, n), capacity: capacity}
}

func (rc *responseCache) slot(seq uint32) *cachedExchange {
	return &rc.entries[seq%uint32(len(rc.entries))]
}

// grow doubles the ring, or makes it capacity long where the double does
// not divide capacity, and moves the live entries to their new slots.
// Entries that are not live (never stored, or cleared) are dropped with
// their buffers.
func (rc *responseCache) grow() {
	n := 2 * len(rc.entries)
	if rc.capacity%n != 0 {
		n = rc.capacity
	}
	entries := make([]cachedExchange, n)
	for _, e := range rc.entries {
		if e.live {
			entries[e.seq%uint32(n)] = e
		}
	}
	rc.entries = entries
}

// lookup returns the cached PacketIns for a byte-identical duplicate of a
// previously answered request. A different request under the same seqNum
// (a genuine replay or a corrupted copy) misses, so it reaches the
// pipeline's replay defence.
func (rc *responseCache) lookup(seq uint32, req []byte) ([][]byte, bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	e := rc.slot(seq)
	if !e.live || e.seq != seq || !bytes.Equal(e.req, req) {
		return nil, false
	}
	// Deep-copy: callers (taps, hooks) may hold onto the slices, and the
	// entry's buffers are recycled on eviction.
	out := make([][]byte, len(e.pins))
	for j, p := range e.pins {
		out[j] = append([]byte(nil), p...)
	}
	return out, true
}

// store remembers an exchange, deep-copied into its slot's recycled
// buffers; the latest answer for a sequence number wins.
func (rc *responseCache) store(seq uint32, req []byte, pins [][]byte) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	e := rc.slot(seq)
	for e.live && e.seq != seq && len(rc.entries) < rc.capacity {
		rc.grow()
		e = rc.slot(seq)
	}
	e.seq, e.live = seq, true
	e.req = append(e.req[:0], req...)
	if cap(e.pins) < len(pins) {
		old := e.pins
		e.pins = make([][]byte, len(pins))
		copy(e.pins, old[:cap(old)])
	}
	e.pins = e.pins[:len(pins)]
	for j, p := range pins {
		e.pins[j] = append(e.pins[j][:0], p...)
	}
}

// clear forgets every entry and keeps the buffers.
func (rc *responseCache) clear() {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	for i := range rc.entries {
		rc.entries[i].live = false
	}
}

// Host is a complete switch: data plane plus software stack.
type Host struct {
	Name string
	SW   *pisa.Switch
	// Info is the p4info of SW's compilation, shared with every other
	// switch of it: read-only.
	Info  *p4rt.P4Info
	Costs Costs

	hooks [numBoundaries]*Hooks
	// cache is nil while the idempotency cache is disabled. Atomic because
	// SetResponseCache may run beside a PacketOut; the entries are behind
	// the cache's own lock.
	cache atomic.Pointer[responseCache]
	down  atomic.Bool
	// obsv, when set, counts agent-level traffic (see Observe).
	obsv atomic.Pointer[agentObs]
}

// agentObs is the agent's pre-resolved instrument set.
type agentObs struct {
	packetOuts, packetIns, cacheHits *obs.Counter
	alertBadDigest, alertReplay      *obs.Counter
}

// Observe mirrors the agent's traffic counters into an obs registry under
// the "agent.<name>." prefix: PacketOuts dispatched, PacketIns surfaced,
// idempotency-cache hits, and alerts emitted by the data plane split by
// reason. Resolution happens once here; the packet paths pay one atomic
// load and pure counter increments.
func (h *Host) Observe(reg *obs.Registry) {
	p := "agent." + h.Name + "."
	h.obsv.Store(&agentObs{
		packetOuts:     reg.Counter(p + "packet_outs"),
		packetIns:      reg.Counter(p + "packet_ins"),
		cacheHits:      reg.Counter(p + "cache_hits"),
		alertBadDigest: reg.Counter(p + "alert_bad_digest"),
		alertReplay:    reg.Counter(p + "alert_replay"),
	})
}

// NewHost assembles a host around a data plane. The agent's idempotency
// cache starts enabled at DefaultResponseCacheSize; use SetResponseCache
// to resize or disable it.
func NewHost(name string, sw *pisa.Switch, costs Costs) *Host {
	h := &Host{
		Name:  name,
		SW:    sw,
		Info:  p4rt.InfoOf(sw.Compiled()),
		Costs: costs,
	}
	h.SetResponseCache(DefaultResponseCacheSize)
	return h
}

// SetResponseCache resizes the agent's idempotency cache; capacity 0
// disables it (every duplicate then hits the pipeline's replay defence).
func (h *Host) SetResponseCache(capacity int) {
	if capacity <= 0 {
		h.cache.Store(nil)
		return
	}
	h.cache.Store(newResponseCache(capacity))
}

// SetDown marks the switch crashed (true) or running (false). A down
// switch is silent: packets sent to it vanish (exactly what a peer of a
// crashed node observes) and API calls fail. Chaos harnesses flip this
// around a Reboot to model a crash/restart cycle.
func (h *Host) SetDown(down bool) { h.down.Store(down) }

// Down reports whether the switch is crashed.
func (h *Host) Down() bool { return h.down.Load() }

// ClearCache drops the agent's idempotency cache contents, as a restart
// of the agent process would. The capacity is preserved. Safe beside a
// PacketOut in flight, which sees the cache before or after the clear.
func (h *Host) ClearCache() {
	if rc := h.cache.Load(); rc != nil {
		rc.clear()
	}
}

// ErrDown is returned by API operations on a crashed switch.
var ErrDown = errors.New("switchos: switch is down")

// Install places hooks at a boundary (nil uninstalls) — the backdoor
// installation step of the paper's threat model.
func (h *Host) Install(b Boundary, hk *Hooks) error {
	if b < 0 || b >= numBoundaries {
		return fmt.Errorf("switchos: unknown boundary %d", int(b))
	}
	h.hooks[b] = hk
	return nil
}

// Compromised reports whether any boundary has hooks installed.
func (h *Host) Compromised() bool {
	for _, hk := range h.hooks {
		if hk != nil {
			return true
		}
	}
	return false
}

func (h *Host) regOpDown(op *RegOp) {
	if hk := h.hooks[BoundaryAgentSDK]; hk != nil && hk.OnRegOp != nil {
		hk.OnRegOp(op)
	}
	// SDK: resolve ID to name.
	if ri, err := h.Info.RegisterByID(op.ID); err == nil {
		op.Name = ri.Name
	}
	if hk := h.hooks[BoundarySDKDriver]; hk != nil && hk.OnRegOp != nil {
		hk.OnRegOp(op)
	}
}

func (h *Host) regResultUp(op *RegOp, value *uint64) {
	if hk := h.hooks[BoundarySDKDriver]; hk != nil && hk.OnRegResult != nil {
		hk.OnRegResult(op, value)
	}
	if hk := h.hooks[BoundaryAgentSDK]; hk != nil && hk.OnRegResult != nil {
		hk.OnRegResult(op, value)
	}
}

// APIRegisterWrite performs a P4Runtime-style register write through the
// full stack, returning the modeled latency of the request path.
func (h *Host) APIRegisterWrite(regID uint32, index uint32, value uint64) (time.Duration, error) {
	if h.down.Load() {
		return 0, fmt.Errorf("%w: %s", ErrDown, h.Name)
	}
	cost := h.Costs.AgentBase + 2*h.Costs.ComposeField // index + data
	op := &RegOp{ID: regID, Index: index, Value: value, IsWrite: true}
	h.regOpDown(op)
	cost += h.Costs.SDKBase + h.Costs.DriverBase + h.Costs.PCIe
	if op.Name == "" {
		return cost, fmt.Errorf("switchos: %s: register id %#x did not resolve", h.Name, op.ID)
	}
	if err := h.SW.RegisterWrite(op.Name, int(op.Index), op.Value); err != nil {
		return cost, fmt.Errorf("switchos: %s: %w", h.Name, err)
	}
	return cost, nil
}

// APIRegisterRead performs a P4Runtime-style register read through the
// full stack.
func (h *Host) APIRegisterRead(regID uint32, index uint32) (uint64, time.Duration, error) {
	if h.down.Load() {
		return 0, 0, fmt.Errorf("%w: %s", ErrDown, h.Name)
	}
	cost := h.Costs.AgentBase + h.Costs.ComposeField // index only
	op := &RegOp{ID: regID, Index: index}
	h.regOpDown(op)
	cost += h.Costs.SDKBase + h.Costs.DriverBase + h.Costs.PCIe
	if op.Name == "" {
		return 0, cost, fmt.Errorf("switchos: %s: register id %#x did not resolve", h.Name, op.ID)
	}
	v, err := h.SW.RegisterRead(op.Name, int(op.Index))
	if err != nil {
		return 0, cost, fmt.Errorf("switchos: %s: %w", h.Name, err)
	}
	h.regResultUp(op, &v)
	cost += h.Costs.SDKBase + h.Costs.AgentBase
	return v, cost, nil
}

// IOResult is the outcome of a packet injected into the host (PacketOut or
// a network packet): forwarded packets, PacketIns surfaced to the control
// channel, and the modeled latency.
//
// An IOResult passed to the *Into methods is reusable: emission buffers
// are recycled across calls, so NetOut/PacketIns contents are valid only
// until the next *Into call on the same result. IOResults returned by the
// by-value methods own their buffers.
//
// Where the bytes live depends on the entry point, not on the caller. The
// single-packet entry points (PacketOutInto, NetworkPacketInto) run one
// packet through pres and hand out the pipeline's own emission buffers,
// which pisa keeps unchanged until the next ProcessInto on the same
// Result, that is until the next *Into on this IOResult: the lifetime
// above, with no copy. NetworkPacketBatchInto does the same with bres.
// Only PacketOutBatchInto, whose window shares the one pres packet after
// packet, copies each packet's emissions into the arena.
type IOResult struct {
	// NetOut are emissions on network ports.
	NetOut []pisa.Emission
	// PacketIns are CPU-port emissions after traversing the stack upward.
	PacketIns [][]byte
	// Cost is the total modeled latency (software path + pipeline).
	Cost time.Duration

	// pres is the reusable pipeline result; arena recycles the byte
	// buffers backing NetOut/PacketIns of a PacketOut window across calls.
	pres  pisa.Result
	arena [][]byte
	nused int

	// bres is the batch ingress path's reusable pipeline result, whose
	// per-packet buffers back NetOut and PacketIns zero-copy (see
	// batch.go).
	bres pisa.BatchResult

	// cpu collects one PacketOut's CPU-port emissions for the reply
	// cache, before the upward hooks (see packetOutOne).
	cpu [][]byte
}

func (io *IOResult) reset() {
	io.NetOut = io.NetOut[:0]
	io.PacketIns = io.PacketIns[:0]
	io.Cost = 0
	io.nused = 0
}

// grab copies b into the next recycled arena buffer and returns it.
func (io *IOResult) grab(b []byte) []byte {
	var dst []byte
	if io.nused < len(io.arena) {
		dst = io.arena[io.nused][:0]
	}
	dst = append(dst, b...)
	if io.nused < len(io.arena) {
		io.arena[io.nused] = dst
	} else {
		io.arena = append(io.arena, dst)
	}
	io.nused++
	return dst
}

// PacketOut injects a controller packet into the data plane via the CPU
// port, passing the stack's hooks on the way down. A byte-identical
// retransmission of an already-answered request (same seqNum) is served
// from the agent's idempotency cache: the cached PacketIns are re-emitted
// without re-entering the pipeline, so a duplicate EAK/ADHKD neither
// re-derives key state nor trips the replay defence.
func (h *Host) PacketOut(data []byte) (IOResult, error) {
	var io IOResult
	err := h.PacketOutInto(data, &io)
	return io, err
}

// PacketOutInto is PacketOut with a caller-owned, reusable result (see
// IOResult's reuse contract).
func (h *Host) PacketOutInto(data []byte, io *IOResult) error {
	io.reset()
	if h.down.Load() {
		// A crashed switch answers nothing; the controller sees the same
		// silence as a lost packet and its retransmission budget applies.
		return nil
	}
	io.Cost += h.Costs.PacketIOBase
	return h.packetOutOne(data, io, h.Costs.PacketIOBase, false)
}

// PacketOutBatch injects a window of PacketOuts as one agent I/O
// transaction: the agent's PacketIOBase dispatch cost is paid once for the
// whole window on the way down and once for all PacketIns on the way back
// (the driver batches the DMA), while per-packet byte, driver, PCIe and
// pipeline costs still accrue per packet. This is the transport under the
// controller's windowed pipeline.
func (h *Host) PacketOutBatch(datas [][]byte) (IOResult, error) {
	var io IOResult
	err := h.PacketOutBatchInto(datas, &io)
	return io, err
}

// PacketOutBatchInto is PacketOutBatch with a caller-owned, reusable
// result. PacketIns from all packets of the window are concatenated in
// send order; callers match responses to requests by seqNum, not
// position. Each packet runs through packetOutOne, so a byte-identical
// duplicate inside one window is served from the idempotency cache like
// any other retransmission.
func (h *Host) PacketOutBatchInto(datas [][]byte, io *IOResult) error {
	io.reset()
	if h.down.Load() || len(datas) == 0 {
		return nil
	}
	io.Cost += h.Costs.PacketIOBase
	for _, data := range datas {
		if err := h.packetOutOne(data, io, 0, true); err != nil {
			return err
		}
	}
	if len(io.PacketIns) > 0 {
		io.Cost += h.Costs.PacketIOBase
	}
	return nil
}

// packetOutOne runs one PacketOut through cache, hooks, and pipeline,
// accumulating into io. pinBase is the per-PacketIn agent dispatch cost
// (zero under a batch, where the dispatch is amortized by the caller);
// copyBufs is set when another packet will go through io.pres before the
// caller reads the result (see IOResult).
func (h *Host) packetOutOne(data []byte, io *IOResult, pinBase time.Duration, copyBufs bool) error {
	io.Cost += time.Duration(len(data)) * h.Costs.PerByte
	ao := h.obsv.Load()
	if ao != nil {
		ao.packetOuts.Inc()
	}
	// One load for the whole packet: a concurrent SetResponseCache decides
	// which cache this exchange is looked up in and remembered by.
	rc := h.cache.Load()
	seq, cacheable := cacheKey(rc, data)
	if cacheable {
		if pins, hit := rc.lookup(seq, data); hit {
			if ao != nil {
				ao.cacheHits.Inc()
			}
			// The cache holds what the pipeline emitted; the answer crosses
			// the upward hooks again, as the original did.
			for _, p := range pins {
				io.Cost += time.Duration(len(p)) * h.Costs.PerByte
				if p = h.up(p); p != nil {
					io.PacketIns = append(io.PacketIns, p)
				}
			}
			return nil
		}
	}
	orig := data
	for _, b := range []Boundary{BoundaryAgentSDK, BoundarySDKDriver} {
		if hk := h.hooks[b]; hk != nil && hk.OnPacketOut != nil {
			data = hk.OnPacketOut(data)
			if data == nil {
				return nil // silently dropped by the backdoor
			}
		}
	}
	io.Cost += h.Costs.DriverBase + h.Costs.PCIe
	if err := h.process(data, pisa.CPUPort, io); err != nil {
		return err
	}
	if cacheable {
		// Remembered is what the pipeline emitted toward the CPU port,
		// before the upward hooks have seen it: a response a hook altered
		// must not be replayed to the resend. Keyed by the bytes the agent
		// received (pre-hook): that is what a retransmitting controller
		// will resend.
		io.cpu = io.cpu[:0]
		for _, e := range io.pres.Emissions {
			if e.Port == pisa.CPUPort {
				io.cpu = append(io.cpu, e.Data)
			}
		}
		if h.cacheWorthy(orig, io.cpu) {
			rc.store(seq, orig, io.cpu)
		}
	}
	h.emitResult(&io.pres, io, pinBase, copyBufs)
	return nil
}

// cacheWorthy filters what the idempotency cache remembers. Alert
// responses are never cached: a duplicate of a failed request must
// re-enter the pipeline, where the replay defence and the alert-threshold
// cap apply — otherwise replaying garbage would mint unlimited copies of a
// cached alert. Empty results are cached only for key-exchange messages
// (a fire-and-forget kx leg like the final ADHKD2 legitimately answers
// nothing, and reprocessing it would corrupt initiator state); an empty
// result for a register op means the message was dropped, and a duplicate
// should be re-tried against the pipeline.
func (h *Host) cacheWorthy(req []byte, pins [][]byte) bool {
	for _, p := range pins {
		if hdrType, _, ok := core.PeekControl(p); ok && hdrType == core.HdrAlert {
			return false
		}
	}
	if len(pins) == 0 {
		hdrType, _, _ := core.PeekControl(req)
		return hdrType == core.HdrKeyExch
	}
	return true
}

// cacheKey decides whether a PacketOut participates in the idempotency
// cache: control-channel register and key-exchange requests do, keyed by
// their seqNum; anything else (feedback, non-P4Auth bytes) bypasses it.
func cacheKey(rc *responseCache, data []byte) (uint32, bool) {
	if rc == nil {
		return 0, false
	}
	hdrType, seq, ok := core.PeekControl(data)
	if !ok || (hdrType != core.HdrRegister && hdrType != core.HdrKeyExch) {
		return 0, false
	}
	return seq, true
}

// NetworkPacket injects a packet arriving on a network port directly into
// the pipeline (no software stack on the way in).
func (h *Host) NetworkPacket(port int, data []byte) (IOResult, error) {
	var io IOResult
	err := h.NetworkPacketInto(port, data, &io)
	return io, err
}

// NetworkPacketInto is NetworkPacket with a caller-owned, reusable result
// (see IOResult's reuse contract).
func (h *Host) NetworkPacketInto(port int, data []byte, io *IOResult) error {
	io.reset()
	if h.down.Load() {
		return nil // crashed: the wire ends in a dead port
	}
	if err := h.process(data, port, io); err != nil {
		return err
	}
	h.emitResult(&io.pres, io, h.Costs.PacketIOBase, false)
	return nil
}

// process runs one packet through the pipeline into io.pres and charges
// its cost; emitResult then hands the emissions on.
func (h *Host) process(data []byte, port int, io *IOResult) error {
	if err := h.SW.ProcessInto(pisa.Packet{Data: data, Port: port}, &io.pres); err != nil {
		return fmt.Errorf("switchos: %s: pipeline: %w", h.Name, err)
	}
	io.Cost += io.pres.Cost
	return nil
}

// up carries one PacketIn through the upward hooks, driver side first;
// nil means a hook dropped it.
func (h *Host) up(pin []byte) []byte {
	for _, b := range []Boundary{BoundarySDKDriver, BoundaryAgentSDK} {
		if hk := h.hooks[b]; hk != nil && hk.OnPacketIn != nil {
			if pin = hk.OnPacketIn(pin); pin == nil {
				return nil
			}
		}
	}
	return pin
}

// emitResult walks one pipeline result's emissions, splitting them into
// NetOut and the PacketIn path (PCIe + driver + hooks upward + agent).
// copyBufs selects whether emission bytes are copied into io's arena
// (required when the source Result takes another packet before the caller
// reads io) or referenced in place.
func (h *Host) emitResult(pres *pisa.Result, io *IOResult, pinBase time.Duration, copyBufs bool) {
	for _, e := range pres.Emissions {
		kept := e.Data
		if copyBufs {
			kept = io.grab(e.Data)
		}
		if e.Port != pisa.CPUPort {
			io.NetOut = append(io.NetOut, pisa.Emission{Port: e.Port, Data: kept})
			continue
		}
		io.Cost += h.Costs.PCIe + h.Costs.DriverBase +
			pinBase + time.Duration(len(e.Data))*h.Costs.PerByte
		if pin := h.up(kept); pin != nil {
			io.PacketIns = append(io.PacketIns, pin)
			if ao := h.obsv.Load(); ao != nil {
				ao.packetIns.Inc()
				if hdrType, _, ok := core.PeekControl(pin); ok && hdrType == core.HdrAlert {
					if mt, ok := core.PeekMsgType(pin); ok {
						switch mt {
						case core.AlertBadDigest:
							ao.alertBadDigest.Inc()
						case core.AlertReplay:
							ao.alertReplay.Inc()
						}
					}
				}
			}
		}
	}
}

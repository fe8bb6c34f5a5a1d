// Package controller implements the P4Auth controller (Python3 in the
// paper's prototype; Go here): authenticated register read/write over
// PacketOut/PacketIn, key-management orchestration (local and port key
// initialization and rollover, §VI-C), alert collection with outstanding-
// request accounting (§VIII), and the two baselines of §IX-B —
// P4Runtime-style API access and unauthenticated DP-Reg-RW.
//
// The controller talks to switches synchronously, accumulating modeled
// latency as it goes (each leg pays the control-link RTT plus the switch's
// software-stack and pipeline cost), and relays DP-DP key-exchange
// messages across a registered adjacency, so Fig. 18-20 and Table III can
// be measured without a live event loop.
package controller

import (
	"errors"
	"fmt"
	"maps"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"p4auth/internal/core"
	"p4auth/internal/crypto"
	"p4auth/internal/netsim"
	"p4auth/internal/obs"
	"p4auth/internal/p4rt"
	"p4auth/internal/pisa"
	"p4auth/internal/statestore"
	"p4auth/internal/switchos"
)

// ErrTampered is returned when a response fails digest verification or
// the data plane reports an unauthorized modification.
var ErrTampered = errors.New("controller: message failed authentication")

// Controller-side digest costs (the paper's controller is Python3; its
// per-message HalfSipHash/CRC work is microsecond-scale and is the source
// of P4Auth's few-percent PacketOut-path overhead in Fig. 18/19).
const (
	// SignCost models computing a request digest at the controller.
	SignCost = 8 * time.Microsecond
	// VerifyCost models verifying a response digest at the controller.
	VerifyCost = 8 * time.Microsecond
)

// ErrNAck is returned when the data plane rejects a register operation
// (unknown register, for instance).
var ErrNAck = errors.New("controller: data plane nAcked the request")

// Alert is a data-plane alert surfaced to the operator.
type Alert struct {
	Switch string
	Reason uint8 // core.AlertBadDigest or core.AlertReplay
	SeqNum uint32
}

// Stats aggregates controller traffic accounting (Table III inputs).
type Stats struct {
	MessagesSent  int
	MessagesRecvd int
	BytesSent     int
	BytesRecvd    int
}

// KMPResult reports one key-management operation.
type KMPResult struct {
	Messages int
	Bytes    int
	// RTT is the modeled wall time from first message to key derivation
	// (Fig. 20's metric).
	RTT time.Duration
}

// swHandle is the controller's end of one switch: the shared key state,
// the sequence tracker, and the scratch a request is built and answered
// in. Its share of the concurrency contract (see Controller):
//
//   - name, host, cfg, dig, keys, seq, info and linkLat are set by Register
//     and never reassigned; keys and seq synchronize themselves.
//   - taps is a published snapshot: SetControlTaps stores a new pair, an
//     exchange loads it once, after the send has been admitted.
//   - everything from encBuf down is scratch owned by whoever holds opMu.
type swHandle struct {
	name    string
	host    *switchos.Host
	cfg     core.Config
	dig     crypto.Digester
	keys    *core.KeyStore
	seq     *core.SeqTracker
	info    *p4rt.P4Info
	linkLat time.Duration // one-way controller<->switch latency
	// taps holds the fault-injection taps on the control channel
	// (SetControlTaps); nil until the first call.
	taps atomic.Pointer[controlTaps]

	// opMu serializes wire operations toward this switch and guards the
	// scratch below. It is the one lock a request holds on the controller
	// side. Different switches proceed concurrently; on one switch, a
	// pipelined batch and a KMP leg interleave at operation granularity,
	// never mid-exchange. Lock order: opMu before c.mu; never two handles'
	// opMu at once (multi-switch flows lock per leg).
	opMu sync.Mutex
	// Reusable buffers for the zero-allocation request path. txMsg, with
	// txReg, holds the in-flight register request and kxMsg, with txKx,
	// the KMP leg being run (apart, so that a leg's confirming pa_ver read
	// leaves its bytes for a resend); digBuf the digest input
	// of the message being signed or verified; encBuf the request's wire
	// bytes; io the switch's I/O result; rx/rxBufs the decoded PacketIns;
	// wal the journal record of a durable write call and walBuf its
	// encoding. All are valid only while opMu is held — cold paths copy
	// responses out before releasing it.
	encBuf []byte
	digBuf []byte
	wal    core.JournalBatch
	walBuf []byte
	io     switchos.IOResult
	rx     []*core.Message
	rxBufs []*core.MessageBuf
	txMsg  core.Message
	txReg  core.RegPayload
	kxMsg  core.Message
	txKx   core.KxPayload
	// Relay scratch (relay): the DP-DP hop queue, one I/O result per hop,
	// and the decode target of PacketIns raised on the way.
	hops  []relayHop
	hopIO []*switchos.IOResult
	hopRx core.MessageBuf
	// Batch-verify scratch (runBatchLocked): per-response digest inputs carved
	// out of vfyBuf at the vfyOffs boundaries, per-response verdicts, and
	// the per-key-version gather arrays handed to crypto.VerifyBatch.
	vfyBuf    []byte
	vfyOffs   []int
	vfyOK     []bool
	vfyMember []bool
	vfyDone   []bool
	gDatas    [][]byte
	gGot      []uint32
	gOK       []bool
	gIdx      []int
	// Window scratch (runBatchLocked): the batch's entries, each keeping
	// its wire bytes from earlier batches; the current window's entries,
	// their wires, and the wires the out tap let through.
	batch    []batchEntry
	open     []*batchEntry
	wires    [][]byte
	sendable [][]byte
}

// controlTaps is one switch's pair of control-channel taps: out sees
// PacketOuts, in sees PacketIns; a nil return drops the packet.
type controlTaps struct {
	out, in netsim.Tap
}

// controlTaps returns the taps an exchange starting now goes through.
func (h *swHandle) controlTaps() (out, in netsim.Tap) {
	if taps := h.taps.Load(); taps != nil {
		return taps.out, taps.in
	}
	return nil, nil
}

type portKey struct {
	sw   string
	port int
}

type peerRef struct {
	sw   string
	port int
	lat  time.Duration // one-way link latency
}

// Controller manages a set of P4Auth switches. Operations are synchronous
// by design (each call completes a full request/response round). Calls
// toward different switches proceed concurrently, calls toward one switch
// are serialized by its handle's opMu, and the observability accessors —
// Stats, Alerts, Outstanding, HealthOf — are safe to call concurrently
// with an in-flight operation (a DoS monitor polling mid-exchange).
//
// The concurrency contract, in one place. A register request holds one
// controller-side lock, the handle's opMu, and reads everything else it
// needs without one:
//
//   - cfg is a published snapshot of what requests only read: the retry
//     policy, the virtual clock, the send fence, the state store and the
//     name -> handle table. A setter (SetRetryPolicy, UseClock,
//     SetSendFence, EnableCrashSafety, Register, Quarantine) copies the
//     current snapshot under mu, edits the copy and stores it; a request
//     loads the pointer where it needs a value and never sees half an
//     edit. The maps inside a published snapshot are never written.
//     swHandle.taps (SetControlTaps) and ob (SetObserver) are one pointer
//     each, replaced whole by a single store.
//   - wire is Stats as four atomic counters, added to where a message is
//     sent or parsed. They agree at quiescence; a Stats call beside an
//     exchange may read the message counted and its bytes not yet. The
//     top bit of the sent counter is the Kill flag, so admitting a send
//     and refusing one after Kill are one compare-and-swap on one word:
//     once Kill has returned, no send is counted.
//   - ailing is len(health), published under mu, so that the resilient
//     engine asks for mu only while some switch has a failure on record.
//   - mu guards what is left, none of it on the happy path of a request:
//     the alert list, the health records and their policy, the adjacency
//     and link taps a relayed DP-DP leg looks up, the repair fences, the
//     snapshot persist counter, the seed-use counts, and the copy-edit-store
//     of cfg. The journal id is an atomic counter, so a journaled write
//     takes no mu either.
//
// A fence runs without any controller lock and the Kill flag is read
// again after it, so both still take effect on the next send.
type Controller struct {
	rng crypto.RandomSource

	cfg    atomic.Pointer[ctlConfig]
	wire   wireStats
	ailing atomic.Int32

	mu        sync.Mutex
	adj       map[portKey]peerRef
	alerts    []Alert
	healthPol HealthPolicy
	health    map[string]*Health
	linkTaps  map[portKey]netsim.Tap
	repairs   map[portKey]*repairFence

	// Crash-safety counters (EnableCrashSafety): the last journal id, and
	// the snapshot persist count under mu.
	walID    atomic.Uint64
	persistN uint64
	seedUses map[string]int

	// ob holds the pre-resolved observability instruments (observe.go).
	// Atomic so hot paths read it without c.mu; never nil after New.
	ob obPtr
}

// ctlConfig is one published snapshot of the configuration requests read
// (see Controller). Immutable once stored.
type ctlConfig struct {
	retry RetryPolicy
	clock Clock
	// fence, when set, is consulted before every signed wire send
	// (SetSendFence) — the HA layer's lease check.
	fence func() error
	// store is the crash-safety state store (EnableCrashSafety), nil
	// while journaling is off.
	store    statestore.Store
	switches map[string]*swHandle
}

// reconfigure publishes a copy of the current configuration with edit
// applied. edit must replace, not write, a map it changes.
func (c *Controller) reconfigure(edit func(cfg *ctlConfig)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	next := *c.cfg.Load()
	edit(&next)
	c.cfg.Store(&next)
}

// wireStats is the traffic accounting behind Stats (see Controller).
type wireStats struct {
	sent       atomic.Uint64 // messages sent; top bit: killed
	recvd      atomic.Uint64
	bytesSent  atomic.Uint64
	bytesRecvd atomic.Uint64
}

const killedBit = 1 << 63

// admit counts n messages as sent, unless the controller has been killed.
func (w *wireStats) admit(n int) bool {
	for {
		v := w.sent.Load()
		if v&killedBit != 0 {
			return false
		}
		if w.sent.CompareAndSwap(v, v+uint64(n)) {
			return true
		}
	}
}

func (w *wireStats) kill() {
	for {
		v := w.sent.Load()
		if v&killedBit != 0 || w.sent.CompareAndSwap(v, v|killedBit) {
			return
		}
	}
}

func (w *wireStats) killed() bool { return w.sent.Load()&killedBit != 0 }

// received counts one parsed PacketIn.
func (w *wireStats) received(pin []byte) {
	w.recvd.Add(1)
	w.bytesRecvd.Add(uint64(len(pin)))
}

// New returns a controller using rng for salts and private secrets.
func New(rng crypto.RandomSource) *Controller {
	c := &Controller{
		rng:       rng,
		adj:       make(map[portKey]peerRef),
		healthPol: DefaultHealthPolicy,
		health:    make(map[string]*Health),
		linkTaps:  make(map[portKey]netsim.Tap),
		repairs:   make(map[portKey]*repairFence),
		seedUses:  make(map[string]int),
	}
	c.cfg.Store(&ctlConfig{retry: DefaultRetryPolicy, switches: map[string]*swHandle{}})
	c.ob.Store(newCtlObs(obs.NewObserver(0)))
	return c
}

// Register adds a switch under the controller's management. linkLat is the
// one-way latency of the controller-switch management link.
func (c *Controller) Register(name string, host *switchos.Host, cfg core.Config, linkLat time.Duration) error {
	dig, err := cfg.Digester()
	if err != nil {
		return err
	}
	h := &swHandle{
		name:    name,
		host:    host,
		cfg:     cfg,
		dig:     dig,
		keys:    core.NewKeyStore(cfg.Ports, cfg.Seed),
		seq:     core.NewSeqTracker(),
		info:    host.Info,
		linkLat: linkLat,
	}
	dup := false
	c.reconfigure(func(cfg *ctlConfig) {
		if _, dup = cfg.switches[name]; dup {
			return
		}
		cfg.switches = maps.Clone(cfg.switches)
		cfg.switches[name] = h
	})
	if dup {
		return fmt.Errorf("controller: switch %q already registered", name)
	}
	c.wireSwitchObs(h, c.obsv().o)
	return nil
}

// ConnectSwitches records (bidirectionally) that switch a's port pa faces
// switch b's port pb over a link with the given one-way latency, enabling
// relayed and direct DP-DP key exchanges.
func (c *Controller) ConnectSwitches(a string, pa int, b string, pb int, lat time.Duration) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	switches := c.cfg.Load().switches
	if _, ok := switches[a]; !ok {
		return fmt.Errorf("controller: unknown switch %q", a)
	}
	if _, ok := switches[b]; !ok {
		return fmt.Errorf("controller: unknown switch %q", b)
	}
	c.adj[portKey{a, pa}] = peerRef{sw: b, port: pb, lat: lat}
	c.adj[portKey{b, pb}] = peerRef{sw: a, port: pa, lat: lat}
	return nil
}

// Alerts returns collected alerts. Safe during in-flight exchanges.
func (c *Controller) Alerts() []Alert {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Alert(nil), c.alerts...)
}

// Stats returns traffic accounting. Safe during in-flight exchanges; the
// four counters are read one after another, so beside an exchange they
// may be one message apart.
func (c *Controller) Stats() Stats {
	return Stats{
		MessagesSent:  int(c.wire.sent.Load() &^ killedBit),
		MessagesRecvd: int(c.wire.recvd.Load()),
		BytesSent:     int(c.wire.bytesSent.Load()),
		BytesRecvd:    int(c.wire.bytesRecvd.Load()),
	}
}

// Outstanding reports unanswered requests for a switch (DoS indicator).
func (c *Controller) Outstanding(name string) (int, error) {
	h, err := c.handle(name)
	if err != nil {
		return 0, err
	}
	return h.seq.Outstanding(), nil
}

func (c *Controller) handle(name string) (*swHandle, error) {
	h, ok := c.cfg.Load().switches[name]
	if !ok {
		return nil, fmt.Errorf("controller: unknown switch %q", name)
	}
	return h, nil
}

// peerOf resolves an adjacency under the lock.
func (c *Controller) peerOf(sw string, port int) (peerRef, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.adj[portKey{sw, port}]
	return p, ok
}

// SwitchNames returns the registered switch names, sorted — the fleet
// iteration order used by RecoverAll and the HA promotion path.
func (c *Controller) SwitchNames() []string { return c.switchNames() }

// switchNames returns the registered switch names, sorted — iteration in
// a deterministic order is part of the chaos-replay contract.
func (c *Controller) switchNames() []string {
	switches := c.cfg.Load().switches
	names := make([]string, 0, len(switches))
	for name := range switches {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// links returns each registered adjacency once (driven from its
// lexicographically first end), sorted deterministically.
func (c *Controller) links() [][2]portKey {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out [][2]portKey
	for pk, peer := range c.adj {
		if pk.sw > peer.sw || (pk.sw == peer.sw && pk.port > peer.port) {
			continue
		}
		out = append(out, [2]portKey{pk, {peer.sw, peer.port}})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i][0], out[j][0]
		if a.sw != b.sw {
			return a.sw < b.sw
		}
		return a.port < b.port
	})
	return out
}

// relay walks NetOut emissions across links, injecting them at the peer
// switch, until no further network emissions result. PacketIns raised
// along the way are surfaced as alerts/messages to the controller. It
// runs in the sending handle's scratch, under its opMu: the hop queue,
// one I/O result per hop (a hop's emissions live in its result until the
// queue reaches them), and the decode target for the PacketIns.
func (c *Controller) relay(from *swHandle, ems []pisa.Emission) (time.Duration, error) {
	if len(ems) == 0 {
		return 0, nil
	}
	var total time.Duration
	from.hops = from.hops[:0]
	for _, em := range ems {
		from.hops = append(from.hops, relayHop{sw: from, em: em})
	}
	for step := 0; step < len(from.hops); step++ {
		if step > 64 {
			return total, fmt.Errorf("controller: relay did not quiesce (loop?)")
		}
		h := from.hops[step]
		c.mu.Lock()
		peer, ok := c.adj[portKey{h.sw.name, h.em.Port}]
		tap := c.linkTaps[portKey{h.sw.name, h.em.Port}]
		dst := c.cfg.Load().switches[peer.sw] // under mu: Quarantine edits both
		c.mu.Unlock()
		if !ok {
			continue // dangling port: drop, as a real link-less port would
		}
		data := h.em.Data
		if tap != nil {
			data = tap(data)
		}
		if data == nil {
			continue // dropped in flight by a fault tap
		}
		total += peer.lat
		if step == len(from.hopIO) {
			from.hopIO = append(from.hopIO, new(switchos.IOResult))
		}
		res := from.hopIO[step]
		if err := dst.host.NetworkPacketInto(peer.port, data, res); err != nil {
			return total, err
		}
		total += res.Cost
		for _, pin := range res.PacketIns {
			c.wire.received(pin)
			if r, err := from.hopRx.Decode(pin); err == nil && r.HdrType == core.HdrAlert {
				c.noteAlert(dst.name, r.MsgType, r.SeqNum, CauseDPRelay)
			}
		}
		for _, em := range res.NetOut {
			from.hops = append(from.hops, relayHop{sw: dst, em: em})
		}
	}
	return total, nil
}

// relayHop is one DP-DP emission waiting to cross its link.
type relayHop struct {
	sw *swHandle
	em pisa.Emission
}

// scratchRequest builds and signs a register request in the handle's
// scratch message — the zero-allocation hot path behind the public
// register APIs. Under Config.Encrypt, write values are encrypted with
// the sequence-number-derived keystream before signing (§XI's
// encrypt-then-MAC), which is why the sequence number is reserved before
// the payload is filled. Callers must hold h.opMu; the returned message
// is valid until the next scratchRequest on this handle.
func (h *swHandle) scratchRequest(msgType uint8, regID, index uint32, value uint64) (*core.Message, error) {
	key, ver, err := h.keys.Current(core.KeyIndexLocal)
	if err != nil {
		return nil, err
	}
	seq := h.seq.Next()
	if h.cfg.Encrypt && msgType == core.MsgWriteReq {
		value = core.EncryptRequestValue(h.dig, key, seq, value)
	}
	h.txReg = core.RegPayload{RegID: regID, Index: index, Value: value}
	h.txMsg = core.Message{
		Header: core.Header{HdrType: core.HdrRegister, MsgType: msgType, SeqNum: seq, KeyVersion: ver},
		Reg:    &h.txReg,
	}
	h.txMsg.SignBuf(h.dig, key, &h.digBuf)
	return &h.txMsg, nil
}

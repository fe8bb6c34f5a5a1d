package hierarchy

import (
	"fmt"
	"time"

	"p4auth/internal/controller"
	"p4auth/internal/crypto"
	"p4auth/internal/ha"
	"p4auth/internal/netsim"
	"p4auth/internal/obs"
	"p4auth/internal/statestore"
)

// Global is the broker tier: its own lease-fenced replica group (over
// the "global/" store prefix) fronted by one WAN node that serves grant
// and exchange RPCs. The tier is purely event-driven — the handler and
// its timers never block the simulator — and it serves only while the
// active replica passes the lease fence, so every grant carries the
// fencing epoch that makes it revocable by election.
type Global struct {
	h    *Hierarchy
	node *netsim.Node
	// Group is the broker replica group; its controllers own no
	// switches (the global tier touches no data plane directly).
	Group *ha.Group
	// Store is the tier's prefixed view of the shared store.
	Store *statestore.PrefixStore

	keys []uint64 // per-pod broker keys

	grants    map[uint64]*grant
	nextGrant uint64

	relays   map[uint32]*relay
	relaySeq uint32

	// replyCache dedups retransmitted client RPCs per (pod, seq): a nil
	// entry marks an in-flight relay (drop the duplicate, the reply will
	// come), a non-nil entry is replayed verbatim.
	replyCache map[replyKey][]byte

	served uint64 // exchanges completed (ExchOK sent, first time)

	mGrants    *obs.Counter
	mRefusals  *obs.Counter
	mRelayTO   *obs.Counter
	mForged    *obs.Counter
	mTorn      *obs.Counter
	mStray     *obs.Counter
	mDupServed *obs.Counter
}

type replyKey struct {
	pod uint8
	seq uint32
}

// grant is one fenced permission to run a cross-pod exchange.
type grant struct {
	id    uint64
	epoch uint64
	pod   uint8
	label string
	used  bool
}

// relay is one outstanding RelayReq to a link's owner pod.
type relay struct {
	seq      uint32 // relay sequence (global's own space)
	owner    uint8
	reqPod   uint8  // initiator
	reqSeq   uint32 // initiator's RPC seq
	frame    []byte // encoded RelayReq, for retransmit
	attempts int
	done     bool
}

func newGlobal(h *Hierarchy, podKeys []uint64) (*Global, error) {
	st, err := statestore.Prefix(h.Store, "global")
	if err != nil {
		return nil, err
	}
	g := &Global{
		h:          h,
		Store:      st,
		keys:       podKeys,
		grants:     map[uint64]*grant{},
		relays:     map[uint32]*relay{},
		replyCache: map[replyKey][]byte{},

		mGrants:    h.Ob.Metrics.Counter("hier.grants"),
		mRefusals:  h.Ob.Metrics.Counter("hier.grant_refusals"),
		mRelayTO:   h.Ob.Metrics.Counter("hier.relay_timeouts"),
		mForged:    h.Ob.Metrics.Counter("hier.global_forged_dropped"),
		mTorn:      h.Ob.Metrics.Counter("hier.global_torn_dropped"),
		mStray:     h.Ob.Metrics.Counter("hier.global_stray_dropped"),
		mDupServed: h.Ob.Metrics.Counter("hier.dup_replies_served"),
	}
	var reps []*ha.Replica
	for r := 0; r < globalReplicas; r++ {
		c := controller.New(crypto.NewSeededRand(h.cfg.Seed*1000003 + 900007*uint64(r) + 577))
		c.SetRetryPolicy(controller.ResilientRetryPolicy())
		c.UseClock(h.Sim)
		rep, err := ha.NewReplica(ha.ReplicaConfig{
			Name:       fmt.Sprintf("global-ctl%d", r),
			Store:      st,
			Clock:      h.Sim,
			TTL:        leaseTTL,
			Controller: c,
			Observer:   h.Ob,
		})
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
	}
	grp, err := ha.NewGroup(h.Sim, reps...)
	if err != nil {
		return nil, err
	}
	g.Group = grp
	g.node = h.Net.AddNode(g.nodeName(), netsim.HandlerFunc(g.handle))
	return g, nil
}

func (g *Global) nodeName() string { return "wan-global" }

// Served reports how many cross-pod exchanges the tier completed.
func (g *Global) Served() uint64 { return g.served }

// Grants reports how many grants the tier has issued.
func (g *Global) Grants() uint64 { return g.nextGrant }

// active returns the serving replica, or nil when the tier cannot
// serve: no known active, the active's controller is dead (a dead
// frontend answers nothing), or the lease fence refuses it.
func (g *Global) active() *ha.Replica {
	a := g.Group.Active()
	if a == nil || a.Controller().Killed() || a.Fence() != nil {
		return nil
	}
	return a
}

// Elect runs a broker-tier election (after the active was killed or its
// store access was lost). Grants issued under the previous epoch die
// with it: the epoch check at ExchReq refuses them.
func (g *Global) Elect(cause string) (*ha.Election, error) {
	return g.Group.Elect(cause)
}

// handle is the tier's WAN frontend: decode, authenticate, dispatch.
// It runs at packet-delivery time and never blocks the simulator.
func (g *Global) handle(net *netsim.Network, node *netsim.Node, port int, data []byte) {
	f, err := Decode(data)
	if err != nil {
		g.mTorn.Inc()
		return
	}
	if int(f.Pod) >= len(g.keys) || !f.Verify(g.keys[f.Pod]) {
		g.mForged.Inc()
		g.h.Ob.Audit.Append(obs.EvDigestMismatch, g.nodeName(), "broker-frame", f.Seq, uint64(f.Pod))
		return
	}
	// The WAN star binds pod p to hub port p+1; a verified frame arriving
	// on another pod's port is a spoof attempt even with a stolen key.
	if port != int(f.Pod)+1 {
		g.mForged.Inc()
		g.h.Ob.Audit.Append(obs.EvDigestMismatch, g.nodeName(), "broker-port-spoof", f.Seq, uint64(f.Pod))
		return
	}
	switch f.Type {
	case TGrantReq:
		g.serveGrant(f)
	case TExchReq:
		g.serveExch(f)
	case TRelayOK, TRefuse:
		g.finishRelay(f)
	default:
		g.mStray.Inc()
	}
}

// reply signs and sends a response to the given pod, returning the
// encoded bytes for caching.
func (g *Global) reply(pod uint8, f *Frame) []byte {
	f.Pod = GlobalPod
	b, err := f.Encode(g.keys[pod])
	if err != nil {
		return nil
	}
	_ = g.h.Net.Send(g.node, int(pod)+1, b, 0)
	return b
}

// refuse sends an uncached typed refusal.
func (g *Global) refuse(pod uint8, seq uint32, cause uint8, ver uint8) {
	g.mRefusals.Inc()
	g.reply(pod, &Frame{Type: TRefuse, Hint: cause, Seq: seq, Ver: ver})
}

// serveGrant issues a fenced grant, or refuses while the tier has no
// fenced active. Successful replies are cached per (pod, seq) so a
// retransmitted request gets the SAME grant.
func (g *Global) serveGrant(f *Frame) {
	k := replyKey{f.Pod, f.Seq}
	if b, ok := g.replyCache[k]; ok && b != nil {
		g.mDupServed.Inc()
		_ = g.h.Net.Send(g.node, int(f.Pod)+1, b, 0)
		return
	}
	act := g.active()
	if act == nil {
		g.refuse(f.Pod, f.Seq, RefuseUnfenced, 0)
		return
	}
	cl := g.h.byAgg[f.A+":"+itoa(int(f.PA))]
	if cl == nil || cl.Initiator != f.Pod || cl.B != f.B || cl.PB != int(f.PB) {
		// Not a cross-pod link this pod initiates: refuse. Covers forged
		// link claims that survive the digest (insider misuse).
		g.refuse(f.Pod, f.Seq, RefuseEpoch, 0)
		return
	}
	g.nextGrant++
	gr := &grant{id: g.nextGrant, epoch: act.Epoch(), pod: f.Pod, label: cl.Label}
	g.grants[gr.id] = gr
	g.mGrants.Inc()
	g.h.Ob.Audit.Append(obs.EvBrokerGrant, act.Name(), cl.Label, uint32(f.Pod), gr.epoch)
	b := g.reply(f.Pod, &Frame{Type: TGrantOK, Seq: f.Seq, Epoch: gr.epoch, Grant: gr.id,
		A: f.A, PA: f.PA, B: f.B, PB: f.PB})
	g.replyCache[k] = b
}

// serveExch validates the grant against the CURRENT fencing epoch and
// relays the initiator's half to the link's owner pod. The reply-cache
// in-flight marker dedups retransmits without double-relaying.
func (g *Global) serveExch(f *Frame) {
	k := replyKey{f.Pod, f.Seq}
	if b, ok := g.replyCache[k]; ok {
		if b == nil {
			return // relay in flight; the eventual reply answers both
		}
		g.mDupServed.Inc()
		_ = g.h.Net.Send(g.node, int(f.Pod)+1, b, 0)
		return
	}
	act := g.active()
	if act == nil {
		g.refuse(f.Pod, f.Seq, RefuseUnfenced, 0)
		return
	}
	gr := g.grants[f.Grant]
	if gr == nil || gr.pod != f.Pod || gr.epoch != f.Epoch || gr.epoch != act.Epoch() {
		// Unknown grant, another pod's grant, or a grant from a deposed
		// tenure: the election that bumped the epoch revoked it.
		g.refuse(f.Pod, f.Seq, RefuseEpoch, 0)
		return
	}
	cl := g.h.byAgg[f.A+":"+itoa(int(f.PA))]
	if cl == nil || cl.Label != gr.label {
		g.refuse(f.Pod, f.Seq, RefuseEpoch, 0)
		return
	}
	g.relaySeq++
	rl := &relay{seq: g.relaySeq, owner: cl.Owner, reqPod: f.Pod, reqSeq: f.Seq, attempts: 1}
	rf := &Frame{Type: TRelayReq, Seq: rl.seq, Epoch: gr.epoch, Grant: gr.id,
		PK: f.PK, Salt: f.Salt, Ver: f.Ver, A: f.A, PA: f.PA, B: f.B, PB: f.PB,
		Pod: GlobalPod}
	b, err := rf.Encode(g.keys[cl.Owner])
	if err != nil {
		g.refuse(f.Pod, f.Seq, RefuseExec, 0)
		return
	}
	rl.frame = b
	g.relays[rl.seq] = rl
	g.replyCache[k] = nil // in-flight
	_ = g.h.Net.Send(g.node, int(cl.Owner)+1, b, 0)
	g.armRelayTimer(rl)
}

// armRelayTimer schedules the bounded retransmit/abort policy for one
// relay: up to relayAttempts sends relayTimeout apart, then a
// RefuseTimeout back to the initiator.
func (g *Global) armRelayTimer(rl *relay) {
	g.h.Sim.After(relayTimeout, func() {
		if rl.done {
			return
		}
		if rl.attempts < relayAttempts {
			rl.attempts++
			_ = g.h.Net.Send(g.node, int(rl.owner)+1, rl.frame, 0)
			g.armRelayTimer(rl)
			return
		}
		rl.done = true
		delete(g.relays, rl.seq)
		delete(g.replyCache, replyKey{rl.reqPod, rl.reqSeq}) // clear in-flight
		g.mRelayTO.Inc()
		g.refuse(rl.reqPod, rl.reqSeq, RefuseTimeout, 0)
	})
}

// finishRelay completes (RelayOK) or aborts (Refuse) an outstanding
// relay and answers the waiting initiator. Completions are cached for
// the initiator's retransmits; refusals are transient and are not.
func (g *Global) finishRelay(f *Frame) {
	rl := g.relays[f.Seq]
	if rl == nil || rl.done || rl.owner != f.Pod {
		g.mStray.Inc() // late duplicate of a settled relay
		return
	}
	rl.done = true
	delete(g.relays, rl.seq)
	k := replyKey{rl.reqPod, rl.reqSeq}
	if f.Type == TRefuse {
		delete(g.replyCache, k) // transient: a retried ExchReq re-relays
		g.mRefusals.Inc()
		g.reply(rl.reqPod, &Frame{Type: TRefuse, Hint: f.Hint, Seq: rl.reqSeq, Ver: f.Ver})
		return
	}
	if gr := g.grants[f.Grant]; gr != nil {
		gr.used = true
	}
	g.served++
	b := g.reply(rl.reqPod, &Frame{Type: TExchOK, Seq: rl.reqSeq, Epoch: f.Epoch,
		Grant: f.Grant, PK: f.PK, Salt: f.Salt, Ver: f.Ver})
	g.replyCache[k] = b
}

// itoa is a tiny allocation-light strconv.Itoa for small positive ints.
func itoa(n int) string {
	if n < 10 {
		return string([]byte{byte('0' + n)})
	}
	return fmt.Sprintf("%d", n)
}

// compile-time guard: relay timers must outpace neither the client's
// per-try exchange window nor the WAN round trip they bound.
var _ = func() time.Duration {
	if relayTimeout*relayAttempts >= exchTimeout {
		panic("hierarchy: relay retry budget must fit inside one exchange try")
	}
	return 0
}()

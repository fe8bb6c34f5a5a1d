package hierarchy

import (
	"errors"
	"fmt"
	"time"

	"p4auth/internal/controller"
	"p4auth/internal/crypto"
	"p4auth/internal/ha"
	"p4auth/internal/netsim"
	"p4auth/internal/obs"
	"p4auth/internal/statestore"
)

// Broker client errors.
var (
	// ErrBrokerTimeout: a broker RPC exhausted its bounded retries.
	ErrBrokerTimeout = errors.New("hierarchy: broker rpc timed out")
	// ErrDeferred: a cross-pod rollover was queued because the pod is in
	// WAN-degraded mode; FlushDeferred retries it after heal.
	ErrDeferred = errors.New("hierarchy: rollover deferred while wan-degraded")
	// ErrNoActive: the pod tier has no serving replica for the operation.
	ErrNoActive = errors.New("hierarchy: pod has no fenced active replica")
)

// RefusedError is a typed broker refusal surfaced to the caller.
type RefusedError struct {
	Cause uint8
	// RemoteVer is the remote slot version on RefuseSkew.
	RemoteVer uint8
}

func (e *RefusedError) Error() string {
	return fmt.Sprintf("hierarchy: broker refused: %s", RefusalName(e.Cause))
}

// crossState is the pod's cached view of one established cross link.
type crossState struct {
	// Ver is the committed key-slot version both ends reached.
	Ver uint8
	// Epoch is the global fencing epoch of the grant that authorized it.
	Epoch uint64
}

// Pod is one local tier: a per-pod replica group over the pod's own
// store prefix, owning the pod's switches, plus the WAN-facing broker
// client and the degraded-mode machinery.
type Pod struct {
	h  *Hierarchy
	ID uint8
	// Name is the stable pod label ("pod0"...) used in audits.
	Name string
	// Group is the pod's local replica group.
	Group *ha.Group
	// Store is the pod's prefixed view of the shared store.
	Store *statestore.PrefixStore

	node      *netsim.Node
	brokerKey uint64

	// RPC client state: one sequence space, outstanding-call table.
	nextSeq  uint32
	awaiting map[uint32]*Frame // seq -> nil (outstanding) or reply

	// relayCache replays the signed RelayOK for a retransmitted
	// RelayReq, so a lost reply can never cause a second install.
	relayCache map[uint32][]byte

	// cache holds the committed state of every cross link this pod
	// initiated; it survives WAN loss (graceful degradation).
	cache map[string]crossState

	// Degraded mode: entered when broker RPCs fail, exited when one
	// succeeds again. Rollovers requested while degraded are deferred.
	degraded bool
	deferred []*CrossLink

	mEstablish *obs.Counter
	mTimeouts  *obs.Counter
	mForged    *obs.Counter
	mTorn      *obs.Counter
	mStray     *obs.Counter
	mDeferred  *obs.Counter
	mDegEnter  *obs.Counter
	mDegExit   *obs.Counter
	mRelays    *obs.Counter
}

func newPod(h *Hierarchy, id uint8, switches []string, key uint64) (*Pod, error) {
	name := fmt.Sprintf("pod%d", id)
	st, err := statestore.Prefix(h.Store, name)
	if err != nil {
		return nil, err
	}
	p := &Pod{
		h: h, ID: id, Name: name, Store: st, brokerKey: key,
		awaiting:   map[uint32]*Frame{},
		relayCache: map[uint32][]byte{},
		cache:      map[string]crossState{},

		mEstablish: h.Ob.Metrics.Counter("hier.crosspod_establishes"),
		mTimeouts:  h.Ob.Metrics.Counter("hier.broker_timeouts"),
		mForged:    h.Ob.Metrics.Counter("hier.forged_dropped"),
		mTorn:      h.Ob.Metrics.Counter("hier.torn_dropped"),
		mStray:     h.Ob.Metrics.Counter("hier.stray_dropped"),
		mDeferred:  h.Ob.Metrics.Counter("hier.deferred_rollovers"),
		mDegEnter:  h.Ob.Metrics.Counter("hier.degraded_enters"),
		mDegExit:   h.Ob.Metrics.Counter("hier.degraded_exits"),
		mRelays:    h.Ob.Metrics.Counter("hier.relays_served"),
	}
	var reps []*ha.Replica
	for r := 0; r < podReplicas; r++ {
		c := controller.New(crypto.NewSeededRand(h.cfg.Seed*1000003 + 10007*uint64(id) + 7001*uint64(r) + 101))
		c.SetRetryPolicy(controller.ResilientRetryPolicy())
		c.UseClock(h.Sim)
		for _, n := range switches {
			s := h.switches[n]
			if err := c.Register(n, s.Host, s.Cfg, 50*time.Microsecond); err != nil {
				return nil, err
			}
		}
		rep, err := ha.NewReplica(ha.ReplicaConfig{
			Name:       fmt.Sprintf("%s-ctl%d", name, r),
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
	p.Group = grp
	p.node = h.Net.AddNode(p.NodeName(), netsim.HandlerFunc(p.handle))
	return p, nil
}

// NodeName is the name of the pod's node on the WAN star.
func (p *Pod) NodeName() string { return fmt.Sprintf("wan-pod%d", p.ID) }

// Degraded reports whether the pod is currently in WAN-degraded mode.
func (p *Pod) Degraded() bool { return p.degraded }

// DeferredRollovers returns the labels of rollovers queued while
// degraded, in defer order.
func (p *Pod) DeferredRollovers() []string {
	out := make([]string, len(p.deferred))
	for i, cl := range p.deferred {
		out[i] = cl.Label
	}
	return out
}

// CrossState returns the pod's committed view of a cross link (zero
// value when never established).
func (p *Pod) CrossState(label string) crossState { return p.cache[label] }

// Active returns the pod's serving replica, or nil.
func (p *Pod) Active() *ha.Replica {
	a := p.Group.Active()
	if a == nil || a.Controller().Killed() || a.Fence() != nil {
		return nil
	}
	return a
}

// Elect runs a pod-tier election.
func (p *Pod) Elect(cause string) (*ha.Election, error) { return p.Group.Elect(cause) }

// handle is the pod's WAN receiver: authenticated responses complete
// outstanding client calls; RelayReqs run the remote half of a split
// exchange on the pod's own switch.
func (p *Pod) handle(net *netsim.Network, node *netsim.Node, port int, data []byte) {
	f, err := Decode(data)
	if err != nil {
		p.mTorn.Inc()
		return
	}
	if f.Pod != GlobalPod || !f.Verify(p.brokerKey) {
		p.mForged.Inc()
		p.h.Ob.Audit.Append(obs.EvDigestMismatch, p.Name, "broker-frame", f.Seq, uint64(f.Pod))
		return
	}
	switch f.Type {
	case TRelayReq:
		p.serveRelay(f)
	case TGrantOK, TExchOK, TRefuse:
		if r, outstanding := p.awaiting[f.Seq]; outstanding && r == nil {
			p.awaiting[f.Seq] = f
		} else {
			p.mStray.Inc() // late duplicate of an answered or abandoned call
		}
	default:
		p.mStray.Inc()
	}
}

// serveRelay executes the remote half of a split exchange on this pod's
// switch. Replies are cached by relay seq: a retransmitted RelayReq gets
// the SAME signed RelayOK and never triggers a second install.
func (p *Pod) serveRelay(f *Frame) {
	if b, ok := p.relayCache[f.Seq]; ok {
		_ = p.h.Net.Send(p.node, 1, b, 0)
		return
	}
	refuse := func(cause, ver uint8) {
		rf := &Frame{Type: TRefuse, Pod: p.ID, Hint: cause, Seq: f.Seq, Ver: ver}
		if b, err := rf.Encode(p.brokerKey); err == nil {
			_ = p.h.Net.Send(p.node, 1, b, 0)
		}
	}
	act := p.Active()
	if act == nil {
		refuse(RefuseNotActive, 0)
		return
	}
	pk2, s2, _, err := act.Controller().PortKeyExchRemote(f.B, int(f.PB), f.PK, f.Salt, f.Ver)
	if err != nil {
		var skew *controller.KeySkewError
		if errors.As(err, &skew) {
			refuse(RefuseSkew, skew.VerB)
			return
		}
		refuse(RefuseExec, 0)
		return
	}
	p.mRelays.Inc()
	rf := &Frame{Type: TRelayOK, Pod: p.ID, Seq: f.Seq, Epoch: f.Epoch, Grant: f.Grant,
		PK: pk2, Salt: s2, Ver: f.Ver}
	b, err := rf.Encode(p.brokerKey)
	if err != nil {
		refuse(RefuseExec, 0)
		return
	}
	p.relayCache[f.Seq] = b
	_ = p.h.Net.Send(p.node, 1, b, 0)
}

// call runs one bounded broker RPC: send, drive the simulator to the
// per-try deadline watching for the reply, back off deterministically,
// resend — at most `attempts` tries. Retransmits reuse the sequence
// number, so the global tier's reply cache makes them idempotent.
func (p *Pod) call(f *Frame, perTry time.Duration, attempts int) (*Frame, error) {
	p.nextSeq++
	seq := p.nextSeq
	f.Seq = seq
	f.Pod = p.ID
	b, err := f.Encode(p.brokerKey)
	if err != nil {
		return nil, err
	}
	p.awaiting[seq] = nil
	defer delete(p.awaiting, seq)
	done := func() bool { return p.awaiting[seq] != nil }
	backoff := backoffBase
	for try := 1; try <= attempts; try++ {
		if try > 1 {
			// Deterministic backoff between tries; a late reply to the
			// previous send is accepted while waiting.
			p.drive(p.h.Sim.Now()+backoff, done)
			backoff *= 2
			if r := p.awaiting[seq]; r != nil {
				return r, nil
			}
		}
		if err := p.h.Net.Send(p.node, 1, b, 0); err != nil {
			return nil, err
		}
		p.drive(p.h.Sim.Now()+perTry, done)
		if r := p.awaiting[seq]; r != nil {
			return r, nil
		}
	}
	p.mTimeouts.Inc()
	return nil, fmt.Errorf("%w: type=%d after %d tries", ErrBrokerTimeout, f.Type, attempts)
}

// drive steps the lockstep simulator until done() or the deadline.
// Called only from top-level pod operations, never from handlers.
func (p *Pod) drive(deadline time.Duration, done func() bool) {
	for !done() {
		at, ok := p.h.Sim.NextEventAt()
		if !ok || at > deadline {
			p.h.Sim.RunUntil(deadline)
			return
		}
		p.h.Sim.Step()
	}
}

// tryEstablish runs one grant-first broker round for a cross link:
// grant RPC, then the three-legged split exchange with the remote half
// relayed by the global tier. No switch state moves before the fenced
// grant is held.
func (p *Pod) tryEstablish(cl *CrossLink) error {
	act := p.Active()
	if act == nil {
		return ErrNoActive
	}
	gf, err := p.call(&Frame{Type: TGrantReq, A: cl.A, PA: uint16(cl.PA), B: cl.B, PB: uint16(cl.PB)},
		grantTimeout, grantAttempts)
	if err != nil {
		return err
	}
	if gf.Type == TRefuse {
		return &RefusedError{Cause: gf.Hint, RemoteVer: gf.Ver}
	}
	ctl := act.Controller()
	pk1, s1, ver, _, err := ctl.PortKeyExchOpen(cl.A, cl.PA)
	if err != nil {
		return err
	}
	xf, err := p.call(&Frame{Type: TExchReq, Epoch: gf.Epoch, Grant: gf.Grant,
		PK: pk1, Salt: s1, Ver: ver, A: cl.A, PA: uint16(cl.PA), B: cl.B, PB: uint16(cl.PB)},
		exchTimeout, exchAttempts)
	if err != nil {
		return err
	}
	if xf.Type == TRefuse {
		return &RefusedError{Cause: xf.Hint, RemoteVer: xf.Ver}
	}
	if _, err := ctl.PortKeyExchClose(cl.A, cl.PA, xf.PK, xf.Salt, ver+1); err != nil {
		return err
	}
	p.cache[cl.Label] = crossState{Ver: ver + 1, Epoch: gf.Epoch}
	p.mEstablish.Inc()
	return nil
}

// maxEstablishRounds bounds skew-repair retries of one establishment.
const maxEstablishRounds = 3

// EstablishCross establishes (or rolls) one cross-pod link through the
// broker, repairing version skew by forward realignment when the owner
// side reports its slot ahead. WAN failure flips the pod into degraded
// mode; a broker success flips it back.
func (p *Pod) EstablishCross(cl *CrossLink) error {
	var last error
	for round := 1; round <= maxEstablishRounds; round++ {
		err := p.tryEstablish(cl)
		if err == nil {
			p.exitDegraded()
			return nil
		}
		last = err
		var ref *RefusedError
		switch {
		case errors.As(err, &ref) && ref.Cause == RefuseSkew:
			act := p.Active()
			if act == nil {
				return ErrNoActive
			}
			// Owner's slot is ahead (an earlier exchange died after the
			// remote install). Realign our side up and retry: forward-only
			// repair, identical to the single-controller paired-install fix.
			if _, rerr := act.Controller().RealignPortSlot(cl.A, cl.PA, ref.RemoteVer); rerr != nil {
				return rerr
			}
			continue
		case errors.Is(err, ErrBrokerTimeout):
			p.enterDegraded()
			return err
		default:
			return err
		}
	}
	return last
}

// RollCross requests a key rollover on an established cross link. While
// WAN-degraded the rollover is deferred — the link keeps serving on its
// cached committed key — and FlushDeferred retries it after heal.
func (p *Pod) RollCross(cl *CrossLink) error {
	if p.degraded {
		p.deferRoll(cl)
		return ErrDeferred
	}
	err := p.EstablishCross(cl)
	if errors.Is(err, ErrBrokerTimeout) {
		p.deferRoll(cl)
		return errors.Join(err, ErrDeferred)
	}
	return err
}

func (p *Pod) deferRoll(cl *CrossLink) {
	for _, q := range p.deferred {
		if q.Label == cl.Label {
			return // already queued once; rolling twice adds nothing
		}
	}
	p.deferred = append(p.deferred, cl)
	p.mDeferred.Inc()
	p.h.Ob.Audit.Append(obs.EvWANDegraded, p.Name, "defer", 0, uint64(len(p.deferred)))
}

// FlushDeferred retries every deferred rollover in defer order after a
// WAN heal. It stops (leaving the tail queued) on the first failure.
func (p *Pod) FlushDeferred() (flushed int, err error) {
	for len(p.deferred) > 0 {
		cl := p.deferred[0]
		if err := p.EstablishCross(cl); err != nil {
			return flushed, err
		}
		p.deferred = p.deferred[1:]
		flushed++
	}
	return flushed, nil
}

func (p *Pod) enterDegraded() {
	if p.degraded {
		return
	}
	p.degraded = true
	p.mDegEnter.Inc()
	p.h.Ob.Audit.Append(obs.EvWANDegraded, p.Name, "enter", 0, uint64(len(p.deferred)))
}

func (p *Pod) exitDegraded() {
	if !p.degraded {
		return
	}
	p.degraded = false
	p.mDegExit.Inc()
	p.h.Ob.Audit.Append(obs.EvWANDegraded, p.Name, "exit", 0, uint64(len(p.deferred)))
}

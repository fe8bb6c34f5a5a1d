package controller

import (
	"errors"
	"fmt"
	"time"

	"p4auth/internal/core"
	"p4auth/internal/obs"
)

// The four key-management flows of Fig. 14 are tables of legs (kmpLeg)
// that one runner (kmpRun) executes single-shot (the default: each leg
// sent once, Table III's counts) or confirmed (MaxAttempts > 1; the split
// halves and RepairPortKey at any policy): each leg retransmitted, each
// install confirmed by reading pa_ver, and a slot an interrupted exchange
// left behind resynced or realigned (see PROTOCOL.md).

// kmpLeg is one C-DP exchange: the request, its modeled digest work, and
// the answer it waits for (want 0: relayed DP-DP messages instead).
type kmpLeg struct {
	msgType, want uint8
	what          string
	cost          time.Duration
	relayed       int
}

// The legs of Fig. 14 (a, b: EAK, ADHKD; c: legs 1-2, 3-4, 5; d: the
// command). Each carries the previous answer's DH share and salt on.
var (
	legEAK       = kmpLeg{msgType: core.MsgEAKSalt1, cost: SignCost + VerifyCost, want: core.MsgEAKSalt2, what: "EAK"}
	legADHKD     = kmpLeg{msgType: core.MsgADHKD1, cost: SignCost + VerifyCost, want: core.MsgADHKD2, what: "ADHKD"}
	legsPortInit = [3]kmpLeg{
		{msgType: core.MsgPortKeyInit, want: core.MsgADHKD1, what: "portKeyInit"},
		{msgType: core.MsgADHKD1, cost: SignCost + VerifyCost, want: core.MsgADHKD2, what: "redirected ADHKD"},
		{msgType: core.MsgADHKD2, cost: SignCost},
	}
	legPortUpdate = kmpLeg{msgType: core.MsgPortKeyUpdate, cost: SignCost, relayed: 2}
)

// kmpEnd is a switch and the key slot a flow works on there.
type kmpEnd struct {
	h    *swHandle
	port int
}

// kmpRun is one flow in progress and the traffic it has cost. fence stops
// a superseded repair before its next leg or resend.
type kmpRun struct {
	c       *Controller
	a, b    kmpEnd
	pol     RetryPolicy
	confirm bool
	fence   func() error
	res     KMPResult
	wire    int // encoded size of the last signed request
}

// newRun starts a flow from a's slot pa (to b's slot pb, if b is named),
// confirmed when the retry policy retransmits or the caller asks.
func (c *Controller) newRun(confirm bool, a string, pa int, b string, pb int) (kmpRun, error) {
	pol := c.retryPolicy()
	r := kmpRun{c: c, a: kmpEnd{port: pa}, b: kmpEnd{port: pb}, pol: pol,
		confirm: confirm || pol.MaxAttempts > 1, fence: func() error { return nil }}
	var err error
	if r.a.h, err = c.handle(a); err == nil && b != "" {
		r.b.h, err = c.handle(b)
	}
	return r, err
}

// linkRun starts a port flow on the link at (a, pa).
func (c *Controller) linkRun(a string, pa int, confirm bool) (kmpRun, error) {
	peer, ok := c.peerOf(a, pa)
	r, err := c.newRun(confirm, a, pa, peer.sw, peer.port)
	if err == nil && !ok {
		err = fmt.Errorf("controller: %s port %d has no registered peer", a, pa)
	}
	return r, err
}

// LocalKeyInit runs the local-key initialization of Fig. 14(a): an EAK
// exchange deriving K_auth from the pre-shared seed, then an ADHKD
// exchange deriving K_local. Four messages total in the default
// single-shot mode; under a retransmission policy (SetRetryPolicy) each
// exchange is retried, confirmed, and resynced on interruption.
func (c *Controller) LocalKeyInit(sw string) (KMPResult, error) {
	return c.localFlow(sw, CauseLocalInit)
}

// LocalKeyUpdate runs the rollover of Fig. 14(b): one ADHKD exchange under
// the current local key. Two messages (single-shot mode).
func (c *Controller) LocalKeyUpdate(sw string) (KMPResult, error) {
	return c.localFlow(sw, CauseLocalUpdate)
}

func (c *Controller) localFlow(sw, cause string) (res KMPResult, err error) {
	c.rolloverBegin(sw, cause, 0)
	defer func() { c.rolloverEnd(sw, cause, 0, err) }()
	r, err := c.newRun(false, sw, core.KeyIndexLocal, "", 0)
	if err != nil {
		return res, err
	}
	if cause == CauseLocalUpdate && !r.a.h.keys.Established(core.KeyIndexLocal) {
		return res, fmt.Errorf("controller: %s: no local key to update", sw)
	}
	var eak KMPResult
	if cause == CauseLocalInit {
		if err := r.flow(&legEAK); err != nil {
			return r.res, err
		}
		eak = r.res
	}
	if err = r.flow(&legADHKD); err == nil {
		err = c.autoPersist(sw)
	} else if !r.confirm && cause == CauseLocalInit {
		return eak, err // a single-shot init counts its EAK alone
	}
	return r.res, err
}

// PortKeyInit runs Fig. 14(c): the controller triggers switch A to start
// an ADHKD for the A(pa) <-> B(pb) link and redirects the exchange
// (initKeyExch) between the two data planes, authenticating each C-DP leg
// with the respective local key. Five messages. The controller never
// learns the derived port key.
func (c *Controller) PortKeyInit(a string, pa int, b string, pb int) (res KMPResult, err error) {
	c.rolloverBegin(a, CausePortInit, uint64(pa))
	defer func() { c.rolloverEnd(a, CausePortInit, uint64(pa), err) }()
	r, err := c.newRun(false, a, pa, b, pb)
	if err != nil {
		return res, err
	}
	if err = r.flow(&legsPortInit[0]); err == nil {
		err = errors.Join(c.autoPersist(a), c.autoPersist(b))
	}
	return r.res, err
}

// PortKeyUpdate runs Fig. 14(d): one portKeyUpdate command to A; the
// ADHKD then travels directly between the data planes under the current
// port key. Three messages (one C-DP, two DP-DP relayed by the fabric).
func (c *Controller) PortKeyUpdate(a string, pa int) (res KMPResult, err error) {
	c.rolloverBegin(a, CausePortUpdate, uint64(pa))
	defer func() { c.rolloverEnd(a, CausePortUpdate, uint64(pa), err) }()
	r, err := c.linkRun(a, pa, false)
	if err != nil {
		return res, err
	}
	if err = r.portUpdate(); err == nil {
		err = c.autoPersist(a)
	}
	return r.res, err
}

// flow runs the flow whose first leg is l and reruns a failed confirmed
// attempt FlowRetries times, resyncing a local slot after each failure
// (after the last, as the abort); a port-key init realigns as it starts.
func (r *kmpRun) flow(l *kmpLeg) (err error) {
	port := l.msgType == core.MsgPortKeyInit
	for attempt := 0; ; attempt++ {
		if port {
			err = r.portInit()
		} else {
			err = r.local(l)
		}
		if err == nil || !r.confirm || errors.Is(err, ErrQuarantined) {
			return err
		}
		if !port {
			if rerr := r.resync(); rerr != nil {
				return fmt.Errorf("controller: %s: resync failed: %v (after: %w)", r.a.h.name, rerr, err)
			}
		}
		if attempt >= r.pol.FlowRetries {
			return err
		}
	}
}

// local runs one EAK or ADHKD exchange on a's local slot and installs the
// key. A confirmed run stages it, reads pa_ver[0] (the epoch's low byte)
// under the old key, and commits only what the switch installed.
func (r *kmpRun) local(l *kmpLeg) error {
	h := r.a.h
	oldEpoch, err := h.keys.Epoch(core.KeyIndexLocal)
	var kx core.KxPayload
	var key uint64
	switch {
	case err != nil:
	case l.msgType == core.MsgEAKSalt1:
		r.c.countSeedUse(h.name)
		eak := core.NewEAK(h.cfg, r.c.rng)
		if kx, err = r.leg(r.a, l, core.KxPayload{Salt: eak.S1}); err == nil {
			key, err = eak.Complete(kx.Salt)
		}
	default:
		adhkd := core.NewADHKD(h.cfg, r.c.rng)
		if kx, err = r.leg(r.a, l, core.KxPayload{PK: adhkd.PK1(), Salt: adhkd.S1}); err == nil {
			key, err = adhkd.Complete(kx.PK, kx.Salt)
		}
	}
	if err != nil {
		return err
	}
	if !r.confirm {
		_, err = h.keys.Install(core.KeyIndexLocal, key)
		return err
	}
	if err := h.keys.Prepare(core.KeyIndexLocal, key); err != nil {
		return err
	}
	want := uint8(oldEpoch + 1)
	swVer, err := r.readVer(r.a)
	if err == nil && swVer != want {
		err = fmt.Errorf("%w: %s: install not confirmed (pa_ver=%d, want %d)", ErrTampered, h.name, swVer, want)
	}
	if err != nil {
		_ = h.keys.Abort(core.KeyIndexLocal)
		return err
	}
	newEpoch, err := h.keys.Commit(core.KeyIndexLocal)
	if err == nil && newEpoch != oldEpoch+1 {
		err = fmt.Errorf("controller: %s: committed epoch %d, expected %d", h.name, newEpoch, oldEpoch+1)
	}
	return err
}

// resync rolls a's local slot back to the last shared version with an
// authenticated pa_ver[0] write when the switch is one install ahead (its
// answer was lost). Larger drift needs Reinitialize.
func (r *kmpRun) resync() error {
	h := r.a.h
	_ = h.keys.Abort(core.KeyIndexLocal)
	_, ctlVer, err := h.keys.Current(core.KeyIndexLocal)
	if err != nil {
		return err
	}
	swVer, err := r.readVer(r.a)
	switch {
	case err != nil || swVer == ctlVer:
		return err // aligned: the handshake never reached the install
	case swVer == ctlVer+1:
		// before a second install destroys the last shared key
		x, err := r.c.regWrite(h, core.RegVer, uint32(core.KeyIndexLocal), uint64(ctlVer))
		r.res.account(x)
		r.res.RTT += SignCost + VerifyCost
		if err == nil {
			k := r.c.obsv()
			k.rolloverRollback.Inc()
			k.audit(obs.EvRolloverRollback, h.name, CauseSwitchAheadResync, 0, uint64(ctlVer))
		}
		return err
	}
	return fmt.Errorf("controller: %s: unrecoverable key drift (switch pa_ver=%d, controller=%d); Reinitialize required",
		h.name, swVer, ctlVer)
}

// portInit runs Fig. 14(c) once; a confirmed run first realigns a
// lagging slot.
func (r *kmpRun) portInit() error {
	var want uint8
	if r.confirm {
		if err := r.fence(); err != nil {
			return err
		}
		verA, verB, err := r.readVers()
		if err != nil {
			return err
		}
		lag, from, to := r.b, verB, verA
		if int8(verB-verA) > 0 {
			lag, from, to = r.a, verA, verB
		}
		if err := r.realign(lag, from, to); err != nil {
			return wrapSkew(err, r.skew(verA, verB))
		}
		want = to + 1
	}
	kx, err := r.leg(r.a, &legsPortInit[0], core.KxPayload{})
	if err == nil {
		kx, err = r.leg(r.b, &legsPortInit[1], kx)
	}
	if err != nil {
		return err
	}
	return r.close(r.a, kx, want)
}

// close runs port-key init's answerless fifth leg on e; a confirmed run
// resends its bytes under one opMu hold until pa_ver shows want (the
// agent's reply cache absorbs a duplicate of a leg that landed).
func (r *kmpRun) close(e kmpEnd, kx core.KxPayload, want uint8) error {
	l := &legsPortInit[2]
	if !r.confirm {
		_, err := r.leg(e, l, kx)
		return err
	}
	h := e.h
	h.opMu.Lock()
	defer h.opMu.Unlock()
	if err := r.sign(e, l, kx); err != nil {
		return err
	}
	for attempt := 1; attempt <= r.pol.MaxAttempts; attempt++ {
		if err := r.fence(); err != nil {
			return err
		}
		if wait := r.pol.backoff(attempt); wait > 0 {
			r.res.RTT += wait
			r.c.advanceClock(wait)
		}
		if _, err := r.send(h, l); err != nil {
			return err
		}
		if got, err := r.readVerLocked(e); err != nil || got == want {
			return err
		}
	}
	r.c.noteFailure(h)
	return fmt.Errorf("%w: %s: port %d install never confirmed", ErrTimeout, h.name, e.port)
}

// portUpdate runs Fig. 14(d) from a. A confirmed run sends a fresh command
// while neither counter moved (FlowRetries times; it overwrites the
// initiator's stashed nonce) and rebuilds a drifted link with a port-key
// init, whose failure keeps the skew as its cause.
func (r *kmpRun) portUpdate() error {
	if !r.confirm {
		_, err := r.leg(r.a, &legPortUpdate, core.KxPayload{})
		return err
	}
	verA0, verB0, err := r.readVers()
	if err != nil {
		return err
	}
	if verA0 != verB0 {
		return wrapSkew(r.portInit(), r.skew(verA0, verB0))
	}
	for attempt := 0; attempt <= r.pol.FlowRetries; attempt++ {
		if _, err := r.leg(r.a, &legPortUpdate, core.KxPayload{}); err != nil {
			return err
		}
		verA, verB, err := r.readVers()
		switch {
		case err != nil:
			return err
		case verA == verA0+1 && verB == verA0+1:
			r.res.Messages += legPortUpdate.relayed
			r.res.Bytes += legPortUpdate.relayed * r.wire
			return nil
		case verA != verA0 || verB != verB0:
			return wrapSkew(r.portInit(), r.skew(verA, verB))
		}
	}
	return fmt.Errorf("%w: %s: port %d update never took effect", ErrTimeout, r.a.h.name, r.a.port)
}

// realign drives e's slot forward from version from to to with throwaway
// ADHKDs: probes select keys by version tag (§VII).
func (r *kmpRun) realign(e kmpEnd, from, to uint8) error {
	if int8(from-to) > 0 {
		return fmt.Errorf("controller: %s port %d at version %d, past realign target %d", e.h.name, e.port, from, to)
	}
	for ; from != to; from++ {
		adhkd := core.NewADHKD(e.h.cfg, r.c.rng)
		if _, err := r.leg(e, &legADHKD, core.KxPayload{PK: adhkd.PK1(), Salt: adhkd.S1}); err != nil {
			return fmt.Errorf("controller: realign %s port %d: %w", e.h.name, e.port, err)
		}
	}
	return nil
}

// leg runs one leg on e under one hold of its opMu, carrying carry's share
// and salt on, and copies the answer's payload out.
func (r *kmpRun) leg(e kmpEnd, l *kmpLeg, carry core.KxPayload) (core.KxPayload, error) {
	if err := r.fence(); err != nil {
		return core.KxPayload{}, err
	}
	e.h.opMu.Lock()
	defer e.h.opMu.Unlock()
	if err := r.sign(e, l, carry); err != nil {
		return core.KxPayload{}, err
	}
	return r.send(e.h, l)
}

// sign builds the leg's request in h.kxMsg, signs it under the current
// local key and encodes it into encBuf. Requires h.opMu.
func (r *kmpRun) sign(e kmpEnd, l *kmpLeg, carry core.KxPayload) error {
	h := e.h
	key, ver, err := h.keys.Current(core.KeyIndexLocal)
	if err != nil {
		return err
	}
	h.txKx = core.KxPayload{Port: uint16(e.port), PK: carry.PK, Salt: carry.Salt}
	h.kxMsg = core.Message{
		Header: core.Header{HdrType: core.HdrKeyExch, MsgType: l.msgType, SeqNum: h.seq.Next(), KeyVersion: ver},
		Kx:     &h.txKx,
	}
	h.kxMsg.SignBuf(h.dig, key, &h.digBuf)
	h.encBuf = h.kxMsg.AppendEncode(h.encBuf[:0])
	r.wire = len(h.encBuf)
	return nil
}

// send sends h.kxMsg and vets the answer (h.opMu held). A confirmed
// fire-and-forget leg fails only on quarantine: the caller reads state.
func (r *kmpRun) send(h *swHandle, l *kmpLeg) (kx core.KxPayload, err error) {
	c, req := r.c, &h.kxMsg
	var resp []*core.Message
	if r.confirm {
		var x xfer
		x, err = c.transactLocked(h, req, l.want != 0)
		r.res.account(x)
		r.res.RTT += l.cost
		if resp = x.resp; l.want == 0 && !errors.Is(err, ErrQuarantined) {
			err = nil
		}
	} else {
		var lat time.Duration
		var sent, rcvd int
		if resp, lat, sent, rcvd, err = c.exchangeBytesLocked(h, h.encBuf); err != nil {
			return core.KxPayload{}, err
		}
		msgs, bytes := 2, sent+rcvd
		if l.want == 0 {
			msgs, bytes = 1+l.relayed, (1+l.relayed)*sent
		}
		r.res.account(xfer{sends: msgs, sentBytes: bytes, lat: lat + l.cost})
		// A request altered in the switch stack comes back as a verified
		// alert: vet whatever answered before looking at its type.
		if len(resp) == 1 || (l.want == 0 && len(resp) > 0) {
			_, err = c.vetResponses(h, req, resp, true)
		}
		if err == nil && l.want == 0 {
			_ = h.seq.Settle(req.SeqNum)
		}
	}
	if err != nil || l.want == 0 {
		return core.KxPayload{}, err
	}
	if len(resp) != 1 || resp[0].MsgType != l.want || resp[0].Kx == nil {
		return core.KxPayload{}, fmt.Errorf("controller: %s: unexpected %s response", h.name, l.what)
	}
	return *resp[0].Kx, nil
}

// readVers reads both ends' install counters.
func (r *kmpRun) readVers() (verA, verB uint8, err error) {
	if verA, err = r.readVer(r.a); err == nil {
		verB, err = r.readVer(r.b)
	}
	return verA, verB, err
}

// readVer reads e's install counter, pa_ver[e.port].
func (r *kmpRun) readVer(e kmpEnd) (uint8, error) {
	e.h.opMu.Lock()
	defer e.h.opMu.Unlock()
	return r.readVerLocked(e)
}

// readVerLocked is readVer for a caller holding e.h.opMu.
func (r *kmpRun) readVerLocked(e kmpEnd) (uint8, error) {
	v, x, err := r.c.regReadLocked(e.h, core.RegVer, uint32(e.port))
	r.res.account(x)
	r.res.RTT += SignCost + VerifyCost
	return uint8(v), err
}

// skew is the typed cause for the run's link at versions verA and verB.
func (r *kmpRun) skew(verA, verB uint8) *KeySkewError {
	return &KeySkewError{A: r.a.h.name, PA: r.a.port, B: r.b.h.name, PB: r.b.port, VerA: verA, VerB: verB}
}

// PortKeyExchOpen runs legs 1-2 of a split port-key init (Fig. 14(c) on a
// link whose ends two controllers own) on local switch a: it returns a's
// share (pk1, s1) and ver, the slot's counter both ends must agree on.
func (c *Controller) PortKeyExchOpen(a string, pa int) (pk1 uint64, s1 uint32, ver uint8, res KMPResult, err error) {
	r, err := c.newRun(true, a, pa, "", 0)
	var kx core.KxPayload
	if err == nil {
		if ver, err = r.readVer(r.a); err == nil {
			kx, err = r.leg(r.a, &legsPortInit[0], kx)
		}
	}
	if err != nil {
		return 0, 0, 0, r.res, err
	}
	return kx.PK, kx.Salt, ver, r.res, nil
}

// PortKeyExchRemote runs legs 3-4 of a split exchange on local switch b,
// returning b's share (pk2, s2). A slot behind the initiator's ver is
// realigned first; one ahead returns a KeySkewError (PeerAhead).
func (c *Controller) PortKeyExchRemote(b string, pb int, pk1 uint64, s1 uint32, ver uint8) (pk2 uint64, s2 uint32, res KMPResult, err error) {
	r, err := c.newRun(true, b, pb, "", 0)
	var verB uint8
	if err == nil {
		verB, err = r.readVer(r.a)
	}
	switch {
	case err != nil:
	case int8(verB-ver) > 0:
		err = &KeySkewError{A: "peer", PA: -1, B: b, PB: pb, VerA: ver, VerB: verB}
	case verB != ver:
		err = r.realign(r.a, verB, ver)
	}
	var kx core.KxPayload
	if err == nil {
		kx, err = r.leg(r.a, &legsPortInit[1], core.KxPayload{PK: pk1, Salt: s1})
	}
	if err == nil {
		err = c.autoPersist(b)
	}
	if err != nil {
		return 0, 0, r.res, err
	}
	return kx.PK, kx.Salt, r.res, nil
}

// PortKeyExchClose runs leg 5 of a split exchange on local switch a,
// confirming by state that a's slot reached want (ver+1).
func (c *Controller) PortKeyExchClose(a string, pa int, pk2 uint64, s2 uint32, want uint8) (res KMPResult, err error) {
	r, err := c.newRun(true, a, pa, "", 0)
	if err == nil {
		err = r.close(r.a, core.KxPayload{PK: pk2, Salt: s2}, want)
	}
	if err == nil {
		err = c.autoPersist(a)
	}
	return r.res, err
}

// RealignPortSlot drives local switch sw's port slot FORWARD to target,
// for a split exchange whose remote end reported PeerAhead; a fresh
// exchange must follow. A slot past target is an error.
func (c *Controller) RealignPortSlot(sw string, port int, target uint8) (KMPResult, error) {
	r, err := c.newRun(true, sw, port, "", 0)
	var ver uint8
	if err == nil {
		ver, err = r.readVer(r.a)
	}
	if err == nil {
		err = r.realign(r.a, ver, target)
	}
	return r.res, err
}

// add folds another result's traffic into res.
func (res *KMPResult) add(r KMPResult) {
	res.Messages += r.Messages
	res.Bytes += r.Bytes
	res.RTT += r.RTT
}

// InitAllKeys initializes local keys for every registered switch and port
// keys for every registered link, returning the aggregate (Table III's
// key-initialization row). Links are initialized once per adjacency pair.
func (c *Controller) InitAllKeys() (KMPResult, error) { return c.allKeys(true) }

// UpdateAllKeys rolls every local and port key (Table III's update row).
func (c *Controller) UpdateAllKeys() (KMPResult, error) { return c.allKeys(false) }

func (c *Controller) allKeys(init bool) (total KMPResult, err error) {
	local, flow := c.LocalKeyUpdate, "update"
	if init {
		local, flow = c.LocalKeyInit, "init"
	}
	for _, name := range c.switchNames() {
		r, err := local(name)
		if err != nil {
			return total, fmt.Errorf("local key %s %s: %w", flow, name, err)
		}
		total.add(r)
	}
	// Each link once, in order: the rng draws must replay identically.
	for _, lk := range c.links() {
		a, b := lk[0], lk[1]
		var r KMPResult
		if !init {
			if r, err = c.PortKeyUpdate(a.sw, a.port); err != nil {
				return total, fmt.Errorf("port key update %s:%d: %w", a.sw, a.port, err)
			}
		} else if r, err = c.PortKeyInit(a.sw, a.port, b.sw, b.port); err != nil {
			return total, fmt.Errorf("port key init %s:%d<->%s:%d: %w", a.sw, a.port, b.sw, b.port, err)
		}
		total.add(r)
	}
	return total, nil
}

// KeyEstablished reports whether the controller holds a current local key
// for the switch.
func (c *Controller) KeyEstablished(sw string) bool {
	h, err := c.handle(sw)
	return err == nil && h.keys.Established(core.KeyIndexLocal)
}

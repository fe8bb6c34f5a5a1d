package controller

import (
	"errors"
	"fmt"
	"time"

	"p4auth/internal/core"
)

// LocalKeyInit runs the local-key initialization of Fig. 14(a): an EAK
// exchange deriving K_auth from the pre-shared seed, then an ADHKD
// exchange deriving K_local. Four messages total in the default
// single-shot mode; under a retransmission policy (SetRetryPolicy) each
// exchange is retried, confirmed, and resynced on interruption.
func (c *Controller) LocalKeyInit(sw string) (KMPResult, error) {
	var res KMPResult
	var err error
	c.rolloverBegin(sw, CauseLocalInit, 0)
	if c.resilient() {
		res, err = c.localKeyInitResilient(sw)
	} else {
		res, err = c.localKeyInitLegacy(sw)
	}
	if err == nil {
		err = c.autoPersist(sw)
	}
	c.rolloverEnd(sw, CauseLocalInit, 0, err)
	return res, err
}

func (c *Controller) localKeyInitLegacy(sw string) (KMPResult, error) {
	h, err := c.handle(sw)
	if err != nil {
		return KMPResult{}, err
	}
	var res KMPResult

	// EAK: salts exchanged under K_seed.
	c.countSeedUse(sw)
	eak := core.NewEAK(h.cfg, c.rng)
	kx, err := c.runLeg(h, &res, kmpLeg{msgType: core.MsgEAKSalt1, kx: core.KxPayload{Salt: eak.S1},
		cost: SignCost + VerifyCost, want: core.MsgEAKSalt2, what: "EAK"})
	if err != nil {
		return res, err
	}
	kauth, err := eak.Complete(kx.Salt)
	if err != nil {
		return res, err
	}
	if _, err := h.keys.Install(core.KeyIndexLocal, kauth); err != nil {
		return res, err
	}

	// ADHKD under K_auth.
	r2, err := c.localADHKD(h)
	if err != nil {
		return res, err
	}
	res.Messages += r2.Messages
	res.Bytes += r2.Bytes
	res.RTT += r2.RTT
	return res, nil
}

// LocalKeyUpdate runs the rollover of Fig. 14(b): one ADHKD exchange under
// the current local key. Two messages (single-shot mode).
func (c *Controller) LocalKeyUpdate(sw string) (KMPResult, error) {
	var res KMPResult
	var err error
	c.rolloverBegin(sw, CauseLocalUpdate, 0)
	if c.resilient() {
		res, err = c.localKeyUpdateResilient(sw)
	} else {
		res, err = c.localKeyUpdateLegacy(sw)
	}
	if err == nil {
		err = c.autoPersist(sw)
	}
	c.rolloverEnd(sw, CauseLocalUpdate, 0, err)
	return res, err
}

func (c *Controller) localKeyUpdateLegacy(sw string) (KMPResult, error) {
	h, err := c.handle(sw)
	if err != nil {
		return KMPResult{}, err
	}
	if !h.keys.Established(core.KeyIndexLocal) {
		return KMPResult{}, fmt.Errorf("controller: %s: no local key to update", sw)
	}
	return c.localADHKD(h)
}

func (c *Controller) localADHKD(h *swHandle) (KMPResult, error) {
	var res KMPResult
	adhkd := core.NewADHKD(h.cfg, c.rng)
	kx, err := c.runLeg(h, &res, kmpLeg{msgType: core.MsgADHKD1, kx: core.KxPayload{PK: adhkd.PK1(), Salt: adhkd.S1},
		cost: SignCost + VerifyCost, want: core.MsgADHKD2, what: "ADHKD"})
	if err != nil {
		return res, err
	}
	klocal, err := adhkd.Complete(kx.PK, kx.Salt)
	if err != nil {
		return res, err
	}
	if _, err := h.keys.Install(core.KeyIndexLocal, klocal); err != nil {
		return res, err
	}
	return res, nil
}

// PortKeyInit runs Fig. 14(c): the controller triggers switch A to start
// an ADHKD for the A(pa) <-> B(pb) link and redirects the exchange
// (initKeyExch) between the two data planes, authenticating each C-DP leg
// with the respective local key. Five messages. The controller never
// learns the derived port key.
func (c *Controller) PortKeyInit(a string, pa int, b string, pb int) (KMPResult, error) {
	var res KMPResult
	var err error
	c.rolloverBegin(a, CausePortInit, uint64(pa))
	if c.resilient() {
		res, err = c.portKeyInitResilient(a, pa, b, pb)
	} else {
		res, err = c.portKeyInitLegacy(a, pa, b, pb)
	}
	if err == nil {
		err = errors.Join(c.autoPersist(a), c.autoPersist(b))
	}
	c.rolloverEnd(a, CausePortInit, uint64(pa), err)
	return res, err
}

func (c *Controller) portKeyInitLegacy(a string, pa int, b string, pb int) (KMPResult, error) {
	ha, err := c.handle(a)
	if err != nil {
		return KMPResult{}, err
	}
	hb, err := c.handle(b)
	if err != nil {
		return KMPResult{}, err
	}
	var res KMPResult

	// 1-2: portKeyInit to A; A answers with its ADHKD1 (initKeyExch).
	kx1, err := c.runLeg(ha, &res, kmpLeg{msgType: core.MsgPortKeyInit, kx: core.KxPayload{Port: uint16(pa)},
		want: core.MsgADHKD1, what: "portKeyInit"})
	if err != nil {
		return res, err
	}
	// 3-4: redirect ADHKD1 to B (tagged with B's port); B answers ADHKD2.
	kx2, err := c.runLeg(hb, &res, kmpLeg{msgType: core.MsgADHKD1, kx: core.KxPayload{Port: uint16(pb), PK: kx1.PK, Salt: kx1.Salt},
		cost: SignCost + VerifyCost, want: core.MsgADHKD2, what: "redirected ADHKD"})
	if err != nil {
		return res, err
	}
	// 5: redirect ADHKD2 back to A, which installs the port key.
	_, err = c.runLeg(ha, &res, kmpLeg{msgType: core.MsgADHKD2, kx: core.KxPayload{Port: uint16(pa), PK: kx2.PK, Salt: kx2.Salt},
		cost: SignCost})
	return res, err
}

// PortKeyUpdate runs Fig. 14(d): one portKeyUpdate command to A; the
// ADHKD then travels directly between the data planes under the current
// port key. Three messages (one C-DP, two DP-DP relayed by the fabric).
func (c *Controller) PortKeyUpdate(a string, pa int) (KMPResult, error) {
	var res KMPResult
	var err error
	c.rolloverBegin(a, CausePortUpdate, uint64(pa))
	if c.resilient() {
		res, err = c.portKeyUpdateResilient(a, pa)
	} else {
		res, err = c.portKeyUpdateLegacy(a, pa)
	}
	if err == nil {
		err = c.autoPersist(a)
	}
	c.rolloverEnd(a, CausePortUpdate, uint64(pa), err)
	return res, err
}

func (c *Controller) portKeyUpdateLegacy(a string, pa int) (KMPResult, error) {
	ha, err := c.handle(a)
	if err != nil {
		return KMPResult{}, err
	}
	if _, ok := c.peerOf(a, pa); !ok {
		return KMPResult{}, fmt.Errorf("controller: %s port %d has no registered peer", a, pa)
	}
	var res KMPResult
	// The exchange's relay step carries the two DP-DP legs.
	_, err = c.runLeg(ha, &res, kmpLeg{msgType: core.MsgPortKeyUpdate, kx: core.KxPayload{Port: uint16(pa)},
		cost: SignCost, relayed: 2})
	return res, err
}

// kmpLeg is one single-shot C-DP exchange of a KMP flow: the request, what
// it adds to the flow's modeled time, and the answer it waits for.
type kmpLeg struct {
	msgType uint8
	kx      core.KxPayload
	// cost is the controller's modeled digest work on top of the round
	// trip.
	cost time.Duration
	// want is the response type, and what names it in the error a wrong
	// answer draws. A fire-and-forget leg (want 0) is answered across the
	// fabric, not to the controller; its request settles implicitly.
	want uint8
	what string
	// relayed is how many DP-DP messages of the request's wire size a
	// fire-and-forget leg sets off; the result counts them too.
	relayed int
}

// runLeg runs one leg under a single hold of h.opMu, in the handle's
// scratch the way the register path does: the request is signed into
// txMsg/txKx and encoded into encBuf, the answer is vetted where it was
// decoded, and its key-exchange payload is copied out before the lock is
// released. The leg's messages, wire bytes and modeled time are added to
// res once the exchange has run.
func (c *Controller) runLeg(h *swHandle, res *KMPResult, l kmpLeg) (core.KxPayload, error) {
	h.opMu.Lock()
	defer h.opMu.Unlock()
	key, ver, err := h.keys.Current(core.KeyIndexLocal)
	if err != nil {
		return core.KxPayload{}, err
	}
	h.txKx = l.kx
	h.txMsg = core.Message{
		Header: core.Header{HdrType: core.HdrKeyExch, MsgType: l.msgType, SeqNum: h.seq.Next(), KeyVersion: ver},
		Kx:     &h.txKx,
	}
	h.txMsg.SignBuf(h.dig, key, &h.digBuf)
	h.encBuf = h.txMsg.AppendEncode(h.encBuf[:0])
	resp, lat, sent, rcvd, err := c.exchangeBytesLocked(h, h.encBuf)
	if err != nil {
		return core.KxPayload{}, err
	}
	res.RTT += lat + l.cost
	// A request altered inside the switch stack comes back as a verified
	// alert, which must surface as ErrTampered with the alert recorded and
	// the sequence number settled: vet whatever answered before looking
	// at its type.
	if l.want == 0 {
		res.Messages += 1 + l.relayed
		res.Bytes += (1 + l.relayed) * sent
		if len(resp) > 0 {
			if _, err := c.vetResponses(h, &h.txMsg, resp, true); err != nil {
				return core.KxPayload{}, err
			}
		}
		_ = h.seq.Settle(h.txMsg.SeqNum)
		return core.KxPayload{}, nil
	}
	res.Messages += 2
	res.Bytes += sent + rcvd
	if len(resp) == 1 {
		if _, err := c.vetResponses(h, &h.txMsg, resp, true); err != nil {
			return core.KxPayload{}, err
		}
	}
	if len(resp) != 1 || resp[0].MsgType != l.want || resp[0].Kx == nil {
		return core.KxPayload{}, fmt.Errorf("controller: %s: unexpected %s response", h.name, l.what)
	}
	return *resp[0].Kx, nil
}

// InitAllKeys initializes local keys for every registered switch and port
// keys for every registered link, returning the aggregate (Table III's
// key-initialization row). Links are initialized once per adjacency pair.
func (c *Controller) InitAllKeys() (KMPResult, error) {
	var total KMPResult
	for _, name := range c.switchNames() {
		r, err := c.LocalKeyInit(name)
		if err != nil {
			return total, fmt.Errorf("local key init %s: %w", name, err)
		}
		total.Messages += r.Messages
		total.Bytes += r.Bytes
		total.RTT += r.RTT
	}
	// Each link once, in deterministic order (the controller's rng draws
	// must replay identically under the chaos harness).
	for _, lk := range c.links() {
		pk, peer := lk[0], lk[1]
		r, err := c.PortKeyInit(pk.sw, pk.port, peer.sw, peer.port)
		if err != nil {
			return total, fmt.Errorf("port key init %s:%d<->%s:%d: %w", pk.sw, pk.port, peer.sw, peer.port, err)
		}
		total.Messages += r.Messages
		total.Bytes += r.Bytes
		total.RTT += r.RTT
	}
	return total, nil
}

// UpdateAllKeys rolls every local and port key (Table III's key-update
// row).
func (c *Controller) UpdateAllKeys() (KMPResult, error) {
	var total KMPResult
	for _, name := range c.switchNames() {
		r, err := c.LocalKeyUpdate(name)
		if err != nil {
			return total, fmt.Errorf("local key update %s: %w", name, err)
		}
		total.Messages += r.Messages
		total.Bytes += r.Bytes
		total.RTT += r.RTT
	}
	for _, lk := range c.links() {
		pk := lk[0]
		r, err := c.PortKeyUpdate(pk.sw, pk.port)
		if err != nil {
			return total, fmt.Errorf("port key update %s:%d: %w", pk.sw, pk.port, err)
		}
		total.Messages += r.Messages
		total.Bytes += r.Bytes
		total.RTT += r.RTT
	}
	return total, nil
}

// KeyEstablished reports whether the controller holds a current local key
// for the switch.
func (c *Controller) KeyEstablished(sw string) bool {
	h, err := c.handle(sw)
	return err == nil && h.keys.Established(core.KeyIndexLocal)
}

// PeriodicRollover runs UpdateAllKeys and returns when the next rollover
// is due, for operators driving rollover on a schedule (§VIII recommends
// well under the 180-day brute-force horizon).
func (c *Controller) PeriodicRollover(now, interval time.Duration) (KMPResult, time.Duration, error) {
	res, err := c.UpdateAllKeys()
	return res, now + interval, err
}

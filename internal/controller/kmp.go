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
	done := c.noteRollover(sw, CauseLocalInit, 0)
	defer func() { done(err) }()
	if c.resilient() {
		res, err = c.localKeyInitResilient(sw)
	} else {
		res, err = c.localKeyInitLegacy(sw)
	}
	if err == nil {
		err = c.autoPersist(sw)
	}
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
	req, err := h.signedMessage(core.HdrKeyExch, core.MsgEAKSalt1, nil, &core.KxPayload{Salt: eak.S1})
	if err != nil {
		return res, err
	}
	resp, lat, err := c.exchange(h, req)
	if err != nil {
		return res, err
	}
	res.RTT += lat + SignCost + VerifyCost
	res.Messages += 2
	if err := c.tally(&res, req, resp); err != nil {
		return res, err
	}
	// Vet before looking at the type (here and in the exchanges below): a
	// request altered inside the switch stack comes back as a verified
	// alert, which must surface as ErrTampered with the alert recorded and
	// the sequence number settled, not as an unexpected response type.
	if len(resp) == 1 {
		if err := c.checkResponse(h, req, resp[0]); err != nil {
			return res, err
		}
	}
	if len(resp) != 1 || resp[0].MsgType != core.MsgEAKSalt2 {
		return res, fmt.Errorf("controller: %s: unexpected EAK response", sw)
	}
	kauth, err := eak.Complete(resp[0].Kx.Salt)
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
	done := c.noteRollover(sw, CauseLocalUpdate, 0)
	defer func() { done(err) }()
	if c.resilient() {
		res, err = c.localKeyUpdateResilient(sw)
	} else {
		res, err = c.localKeyUpdateLegacy(sw)
	}
	if err == nil {
		err = c.autoPersist(sw)
	}
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
	req, err := h.signedMessage(core.HdrKeyExch, core.MsgADHKD1, nil,
		&core.KxPayload{PK: adhkd.PK1(), Salt: adhkd.S1})
	if err != nil {
		return res, err
	}
	resp, lat, err := c.exchange(h, req)
	if err != nil {
		return res, err
	}
	res.RTT += lat + SignCost + VerifyCost
	res.Messages += 2
	if err := c.tally(&res, req, resp); err != nil {
		return res, err
	}
	if len(resp) == 1 {
		if err := c.checkResponse(h, req, resp[0]); err != nil {
			return res, err
		}
	}
	if len(resp) != 1 || resp[0].MsgType != core.MsgADHKD2 {
		return res, fmt.Errorf("controller: %s: unexpected ADHKD response", h.name)
	}
	klocal, err := adhkd.Complete(resp[0].Kx.PK, resp[0].Kx.Salt)
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
	done := c.noteRollover(a, CausePortInit, uint64(pa))
	defer func() { done(err) }()
	if c.resilient() {
		res, err = c.portKeyInitResilient(a, pa, b, pb)
	} else {
		res, err = c.portKeyInitLegacy(a, pa, b, pb)
	}
	if err == nil {
		err = errors.Join(c.autoPersist(a), c.autoPersist(b))
	}
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
	req, err := ha.signedMessage(core.HdrKeyExch, core.MsgPortKeyInit, nil,
		&core.KxPayload{Port: uint16(pa)})
	if err != nil {
		return res, err
	}
	resp, lat, err := c.exchange(ha, req)
	if err != nil {
		return res, err
	}
	res.RTT += lat
	res.Messages += 2
	if err := c.tally(&res, req, resp); err != nil {
		return res, err
	}
	if len(resp) == 1 {
		if err := c.checkResponse(ha, req, resp[0]); err != nil {
			return res, err
		}
	}
	if len(resp) != 1 || resp[0].MsgType != core.MsgADHKD1 {
		return res, fmt.Errorf("controller: %s: unexpected portKeyInit response", a)
	}
	pk1, s1 := resp[0].Kx.PK, resp[0].Kx.Salt

	// 3-4: redirect ADHKD1 to B (tagged with B's port); B answers ADHKD2.
	req, err = hb.signedMessage(core.HdrKeyExch, core.MsgADHKD1, nil,
		&core.KxPayload{Port: uint16(pb), PK: pk1, Salt: s1})
	if err != nil {
		return res, err
	}
	resp, lat, err = c.exchange(hb, req)
	if err != nil {
		return res, err
	}
	res.RTT += lat + SignCost + VerifyCost
	res.Messages += 2
	if err := c.tally(&res, req, resp); err != nil {
		return res, err
	}
	if len(resp) == 1 {
		if err := c.checkResponse(hb, req, resp[0]); err != nil {
			return res, err
		}
	}
	if len(resp) != 1 || resp[0].MsgType != core.MsgADHKD2 {
		return res, fmt.Errorf("controller: %s: unexpected redirected ADHKD response", b)
	}
	pk2, s2 := resp[0].Kx.PK, resp[0].Kx.Salt

	// 5: redirect ADHKD2 back to A, which installs the port key.
	req, err = ha.signedMessage(core.HdrKeyExch, core.MsgADHKD2, nil,
		&core.KxPayload{Port: uint16(pa), PK: pk2, Salt: s2})
	if err != nil {
		return res, err
	}
	_, lat, err = c.exchange(ha, req)
	if err != nil {
		return res, err
	}
	res.RTT += lat + SignCost
	res.Messages++
	if err := c.tally(&res, req, nil); err != nil {
		return res, err
	}
	// The final leg has no response; the request settles implicitly.
	_ = ha.seq.Settle(req.SeqNum)
	return res, nil
}

// PortKeyUpdate runs Fig. 14(d): one portKeyUpdate command to A; the
// ADHKD then travels directly between the data planes under the current
// port key. Three messages (one C-DP, two DP-DP relayed by the fabric).
func (c *Controller) PortKeyUpdate(a string, pa int) (KMPResult, error) {
	var res KMPResult
	var err error
	done := c.noteRollover(a, CausePortUpdate, uint64(pa))
	defer func() { done(err) }()
	if c.resilient() {
		res, err = c.portKeyUpdateResilient(a, pa)
	} else {
		res, err = c.portKeyUpdateLegacy(a, pa)
	}
	if err == nil {
		err = c.autoPersist(a)
	}
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
	req, err := ha.signedMessage(core.HdrKeyExch, core.MsgPortKeyUpdate, nil,
		&core.KxPayload{Port: uint16(pa)})
	if err != nil {
		return res, err
	}
	// The exchange's relay step carries the two DP-DP legs.
	_, lat, err := c.exchange(ha, req)
	if err != nil {
		return res, err
	}
	_ = ha.seq.Settle(req.SeqNum)
	res.RTT += lat + SignCost
	res.Messages += 3
	rb, _ := req.Encode()
	// One C-DP command plus two DP-DP kx messages of the same wire size.
	res.Bytes += 3 * len(rb)
	return res, nil
}

func (c *Controller) tally(res *KMPResult, req *core.Message, resp []*core.Message) error {
	b, err := req.Encode()
	if err != nil {
		return err
	}
	res.Bytes += len(b)
	for _, r := range resp {
		rb, err := r.Encode()
		if err != nil {
			return err
		}
		res.Bytes += len(rb)
	}
	return nil
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

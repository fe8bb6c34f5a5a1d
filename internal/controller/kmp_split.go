package controller

import (
	"errors"
	"fmt"

	"p4auth/internal/core"
)

// This file splits the five-leg port-key initialization of Fig. 14(c)
// into three independently-invocable halves for links whose two ends are
// owned by DIFFERENT controllers (the cross-pod agg-core links of the
// controller hierarchy). PortKeyInit requires one controller holding
// both switch handles; here the initiating controller runs legs 1-2
// (Open) and leg 5 (Close) against its own switch, the remote owner runs
// legs 3-4 (Remote) against its switch, and the hierarchy's broker
// carries (pk1, s1, ver) outbound and (pk2, s2) back over the WAN. The
// controllers still never learn the derived port key — only the public
// DH shares and salts transit the broker, exactly the bytes the paper
// already puts on the C-DP wire.
//
// Version discipline across controllers reuses the paired-install
// invariant: Open reports the initiator slot's pre-exchange version;
// Remote refuses to run unless its slot can be brought to the same
// version (realigning forward with throwaway installs when lagging,
// returning a KeySkewError when ahead so the initiator can realign
// upward and restart). Close confirms by state like the resilient
// single-controller flow: read pa_ver and resend until the install
// shows.

// PortKeyExchOpen runs legs 1-2 of a split port-key init on the local
// switch a: trigger a's ADHKD for port pa and capture its public share.
// It returns a's half of the exchange (pk1, s1) and ver, the slot's
// pre-exchange install counter that both ends must agree on. No install
// happens on a; an Open with no matching Close leaves only a stashed
// nonce, which the next exchange overwrites.
func (c *Controller) PortKeyExchOpen(a string, pa int) (pk1 uint64, s1 uint32, ver uint8, res KMPResult, err error) {
	h, err := c.handle(a)
	if err != nil {
		return 0, 0, 0, res, err
	}
	ver, err = c.readPortVer(h, pa, &res)
	if err != nil {
		return 0, 0, 0, res, err
	}
	req, err := h.signedMessage(core.HdrKeyExch, core.MsgPortKeyInit, nil,
		&core.KxPayload{Port: uint16(pa)})
	if err != nil {
		return 0, 0, 0, res, err
	}
	x, err := c.transact(h, req, true)
	res.account(x)
	if err != nil {
		return 0, 0, 0, res, err
	}
	if len(x.resp) != 1 || x.resp[0].MsgType != core.MsgADHKD1 {
		return 0, 0, 0, res, fmt.Errorf("controller: %s: unexpected portKeyInit response", a)
	}
	return x.resp[0].Kx.PK, x.resp[0].Kx.Salt, ver, res, nil
}

// PortKeyExchRemote runs legs 3-4 on the remote end of a split exchange:
// deliver the initiator's ADHKD1 (pk1, s1) to local switch b's port pb
// and return b's answering share (pk2, s2). ver is the initiator slot's
// pre-exchange version from PortKeyExchOpen. A lagging b slot is first
// realigned forward to ver with throwaway installs; a b slot AHEAD of
// ver returns a KeySkewError (PeerAhead from the initiator's view) so
// the initiator can realign upward and restart the exchange. On success
// b has installed — the verified ADHKD2 proves it (signed-before-
// install) — and b's slot sits at ver+1.
func (c *Controller) PortKeyExchRemote(b string, pb int, pk1 uint64, s1 uint32, ver uint8) (pk2 uint64, s2 uint32, res KMPResult, err error) {
	h, err := c.handle(b)
	if err != nil {
		return 0, 0, res, err
	}
	verB, err := c.readPortVer(h, pb, &res)
	if err != nil {
		return 0, 0, res, err
	}
	if int8(verB-ver) > 0 {
		return 0, 0, res, &KeySkewError{A: "peer", PA: -1, B: b, PB: pb, VerA: ver, VerB: verB}
	}
	if verB != ver {
		if err := c.realignPortSlot(h, pb, ver, &res); err != nil {
			return 0, 0, res, err
		}
	}
	req, err := h.signedMessage(core.HdrKeyExch, core.MsgADHKD1, nil,
		&core.KxPayload{Port: uint16(pb), PK: pk1, Salt: s1})
	if err != nil {
		return 0, 0, res, err
	}
	x, err := c.transact(h, req, true)
	res.account(x)
	res.RTT += SignCost + VerifyCost
	if err != nil {
		return 0, 0, res, err
	}
	if len(x.resp) != 1 || x.resp[0].MsgType != core.MsgADHKD2 {
		return 0, 0, res, fmt.Errorf("controller: %s: unexpected redirected ADHKD response", b)
	}
	if err := c.autoPersist(b); err != nil {
		return 0, 0, res, err
	}
	return x.resp[0].Kx.PK, x.resp[0].Kx.Salt, res, nil
}

// PortKeyExchClose runs leg 5 of a split exchange on local switch a:
// deliver the remote end's ADHKD2 (pk2, s2) so a derives and installs
// the shared port key. want is ver+1 (the post-exchange version both
// slots must reach). Like the resilient single-controller flow, the
// response-less leg is confirmed by state — read pa_ver[pa], resend the
// same bytes until the install shows — and duplicates are absorbed by
// the agent's idempotency cache.
func (c *Controller) PortKeyExchClose(a string, pa int, pk2 uint64, s2 uint32, want uint8) (res KMPResult, err error) {
	h, err := c.handle(a)
	if err != nil {
		return res, err
	}
	req, err := h.signedMessage(core.HdrKeyExch, core.MsgADHKD2, nil,
		&core.KxPayload{Port: uint16(pa), PK: pk2, Salt: s2})
	if err != nil {
		return res, err
	}
	pol := c.retryPolicy()
	for attempt := 1; attempt <= pol.MaxAttempts; attempt++ {
		if wait := pol.backoff(attempt); wait > 0 {
			res.RTT += wait
			c.advanceClock(wait)
		}
		x, lerr := c.transact(h, req, false)
		res.account(x)
		res.RTT += SignCost
		if lerr != nil && errors.Is(lerr, ErrQuarantined) {
			return res, lerr
		}
		got, err := c.readPortVer(h, pa, &res)
		if err != nil {
			return res, err
		}
		if got == want {
			return res, c.autoPersist(a)
		}
	}
	c.noteFailure(h)
	return res, fmt.Errorf("%w: %s: port %d install never confirmed", ErrTimeout, a, pa)
}

// RealignPortSlot drives local switch sw's port slot FORWARD to version
// target with throwaway ADHKD installs (one per missing install), for a
// split exchange whose remote end reported PeerAhead. The keys derived
// are valid only to equalize the counters; the caller must follow with a
// fresh split exchange to establish a usable shared key. A slot already
// past target is an error — a split realign only moves forward, the
// direction that is always possible without touching the other
// controller's switch.
func (c *Controller) RealignPortSlot(sw string, port int, target uint8) (KMPResult, error) {
	h, err := c.handle(sw)
	if err != nil {
		return KMPResult{}, err
	}
	var res KMPResult
	err = c.realignPortSlot(h, port, target, &res)
	return res, err
}

func (c *Controller) realignPortSlot(h *swHandle, port int, target uint8, res *KMPResult) error {
	ver, err := c.readPortVer(h, port, res)
	if err != nil {
		return err
	}
	if d := int8(ver - target); d > 0 {
		return fmt.Errorf("controller: %s port %d at version %d, past realign target %d", h.name, port, ver, target)
	}
	for ver != target {
		adhkd := core.NewADHKD(h.cfg, c.rng)
		req, err := h.signedMessage(core.HdrKeyExch, core.MsgADHKD1, nil,
			&core.KxPayload{Port: uint16(port), PK: adhkd.PK1(), Salt: adhkd.S1})
		if err != nil {
			return err
		}
		x, err := c.transact(h, req, true)
		res.account(x)
		res.RTT += SignCost + VerifyCost
		if err != nil {
			return fmt.Errorf("controller: realign %s port %d: %w", h.name, port, err)
		}
		if len(x.resp) != 1 || x.resp[0].MsgType != core.MsgADHKD2 {
			return fmt.Errorf("controller: realign %s port %d: unexpected response", h.name, port)
		}
		ver++
	}
	return nil
}

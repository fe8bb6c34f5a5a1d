package controller

import (
	"errors"
	"fmt"

	"p4auth/internal/core"
	"p4auth/internal/obs"
)

// This file is the resilient (opt-in, SetRetryPolicy with MaxAttempts > 1)
// implementation of the four KMP flows. The legacy single-shot flows in
// kmp.go preserve the paper's exact message counts (Table III); these
// trade extra confirm/rollback messages for convergence under loss and
// corruption.
//
// The recovery machinery leans on three data-plane invariants:
//
//  1. Signed-before-install: a kx response is signed with the key its
//     request verified under, before the new key is written. A verified
//     response therefore PROVES the switch completed its install.
//  2. One-install survival: an install writes the slot's inactive version
//     bit, so the previously shared key survives exactly one unconfirmed
//     install. Recovery must run — and roll back — before any second
//     install touches the slot.
//  3. Paired port installs: port-slot version counters only move in pairs
//     (one install on each link end per exchange), so unequal counters on
//     a link's two ends pinpoint an interrupted exchange, and equality can
//     be restored by playing one extra controller-driven ADHKD against the
//     lagging slot.

// localKeyInitResilient runs EAK then ADHKD, each as an independently
// retried and resynced flow.
func (c *Controller) localKeyInitResilient(sw string) (KMPResult, error) {
	h, err := c.handle(sw)
	if err != nil {
		return KMPResult{}, err
	}
	var res KMPResult
	if err := c.runLocalFlow(h, &res, func() error { return c.eakStep(h, &res) }); err != nil {
		return res, err
	}
	if err := c.runLocalFlow(h, &res, func() error { return c.adhkdStep(h, &res) }); err != nil {
		return res, err
	}
	return res, nil
}

// localKeyUpdateResilient runs one resynced ADHKD rollover.
func (c *Controller) localKeyUpdateResilient(sw string) (KMPResult, error) {
	h, err := c.handle(sw)
	if err != nil {
		return KMPResult{}, err
	}
	if !h.keys.Established(core.KeyIndexLocal) {
		return KMPResult{}, fmt.Errorf("controller: %s: no local key to update", sw)
	}
	var res KMPResult
	err = c.runLocalFlow(h, &res, func() error { return c.adhkdStep(h, &res) })
	return res, err
}

// runLocalFlow executes one local-slot handshake step, resyncing the key
// state after every failure — before a retry because a fresh handshake on
// top of an unconfirmed install would overwrite the shared key, and after
// the final failure because rollback IS the transaction abort: both sides
// end on the last mutually-known version.
func (c *Controller) runLocalFlow(h *swHandle, res *KMPResult, step func() error) error {
	pol := c.retryPolicy()
	var err error
	for attempt := 0; attempt <= pol.FlowRetries; attempt++ {
		err = step()
		if err == nil || errors.Is(err, ErrQuarantined) {
			return err
		}
		if rerr := c.resyncLocal(h, res); rerr != nil {
			return fmt.Errorf("controller: %s: resync failed: %v (after: %w)", h.name, rerr, err)
		}
	}
	return err
}

// eakStep is one EAK exchange with transactional key activation.
func (c *Controller) eakStep(h *swHandle, res *KMPResult) error {
	oldEpoch, err := h.keys.Epoch(core.KeyIndexLocal)
	if err != nil {
		return err
	}
	c.countSeedUse(h.name)
	eak := core.NewEAK(h.cfg, c.rng)
	req, err := h.signedMessage(core.HdrKeyExch, core.MsgEAKSalt1, nil, &core.KxPayload{Salt: eak.S1})
	if err != nil {
		return err
	}
	x, err := c.transact(h, req, true)
	res.account(x)
	res.RTT += SignCost + VerifyCost
	if err != nil {
		return err
	}
	if len(x.resp) != 1 || x.resp[0].MsgType != core.MsgEAKSalt2 {
		return fmt.Errorf("controller: %s: unexpected EAK response", h.name)
	}
	kauth, err := eak.Complete(x.resp[0].Kx.Salt)
	if err != nil {
		return err
	}
	return c.commitLocalKey(h, res, oldEpoch, kauth)
}

// adhkdStep is one local ADHKD exchange with transactional key activation.
func (c *Controller) adhkdStep(h *swHandle, res *KMPResult) error {
	oldEpoch, err := h.keys.Epoch(core.KeyIndexLocal)
	if err != nil {
		return err
	}
	adhkd := core.NewADHKD(h.cfg, c.rng)
	req, err := h.signedMessage(core.HdrKeyExch, core.MsgADHKD1, nil,
		&core.KxPayload{PK: adhkd.PK1(), Salt: adhkd.S1})
	if err != nil {
		return err
	}
	x, err := c.transact(h, req, true)
	res.account(x)
	res.RTT += SignCost + VerifyCost
	if err != nil {
		return err
	}
	if len(x.resp) != 1 || x.resp[0].MsgType != core.MsgADHKD2 {
		return fmt.Errorf("controller: %s: unexpected ADHKD response", h.name)
	}
	klocal, err := adhkd.Complete(x.resp[0].Kx.PK, x.resp[0].Kx.Salt)
	if err != nil {
		return err
	}
	return c.commitLocalKey(h, res, oldEpoch, klocal)
}

// commitLocalKey is the prepare/confirm/commit sequence of a local-slot
// rollover. The derived key is staged (invisible to Current/At), the
// switch's install is confirmed by reading pa_ver[0] — a request that runs
// under the OLD key precisely because the staged key is not yet active —
// and only then does the controller flip versions. Any failure aborts the
// staged key, leaving the controller on the last mutually-known version
// for resyncLocal to work with. The key store counts installs in a 32-bit
// epoch and pa_ver holds its low byte, so the switch's version is
// compared mod 256 and the committed epoch in full.
func (c *Controller) commitLocalKey(h *swHandle, res *KMPResult, oldEpoch uint32, key uint64) error {
	if err := h.keys.Prepare(core.KeyIndexLocal, key); err != nil {
		return err
	}
	swVer, x, err := c.regRead(h, core.RegVer, uint32(core.KeyIndexLocal))
	res.account(x)
	res.RTT += SignCost + VerifyCost
	if err != nil {
		_ = h.keys.Abort(core.KeyIndexLocal)
		return err
	}
	if want := uint8(oldEpoch + 1); uint8(swVer) != want {
		_ = h.keys.Abort(core.KeyIndexLocal)
		return fmt.Errorf("%w: %s: install not confirmed (pa_ver=%d, want %d)",
			ErrTampered, h.name, uint8(swVer), want)
	}
	newEpoch, err := h.keys.Commit(core.KeyIndexLocal)
	if err != nil {
		return err
	}
	if newEpoch != oldEpoch+1 {
		return fmt.Errorf("controller: %s: committed epoch %d, expected %d", h.name, newEpoch, oldEpoch+1)
	}
	return nil
}

// ResyncLocalKey detects and repairs key-version drift between the
// controller and a switch's local slot after an interrupted rollover: it
// reads pa_ver[0] under the controller's current key and, if the switch
// ran one install ahead (it installed a key whose response was lost),
// rolls the switch back to the last mutually-known version with an
// authenticated register write. Larger drift is unrecoverable here and
// needs Reinitialize.
func (c *Controller) ResyncLocalKey(sw string) (KMPResult, error) {
	h, err := c.handle(sw)
	if err != nil {
		return KMPResult{}, err
	}
	var res KMPResult
	err = c.resyncLocal(h, &res)
	return res, err
}

func (c *Controller) resyncLocal(h *swHandle, res *KMPResult) error {
	_ = h.keys.Abort(core.KeyIndexLocal)
	_, ctlVer, err := h.keys.Current(core.KeyIndexLocal)
	if err != nil {
		return err
	}
	swVer64, x, err := c.regRead(h, core.RegVer, uint32(core.KeyIndexLocal))
	res.account(x)
	res.RTT += SignCost + VerifyCost
	if err != nil {
		return err
	}
	switch swVer := uint8(swVer64); swVer {
	case ctlVer:
		// Aligned: the loss hit a request (or the handshake never reached
		// the install), nothing to undo.
		return nil
	case ctlVer + 1:
		// The switch installed a key the controller never learned. Roll it
		// back BEFORE any fresh handshake: a second install on top would
		// overwrite the old key's version slot and destroy the last shared
		// secret (the liveness gap documented at core.FactoryReset).
		wx, err := c.regWrite(h, core.RegVer, uint32(core.KeyIndexLocal), uint64(ctlVer))
		res.account(wx)
		res.RTT += SignCost + VerifyCost
		if err == nil {
			k := c.obsv()
			k.rolloverRollback.Inc()
			k.audit(obs.EvRolloverRollback, h.name, CauseSwitchAheadResync, 0, uint64(ctlVer))
		}
		return err
	default:
		return fmt.Errorf("controller: %s: unrecoverable key drift (switch pa_ver=%d, controller=%d); Reinitialize required",
			h.name, uint8(swVer64), ctlVer)
	}
}

// portKeyInitResilient is the retried form of Fig. 14(c) with counter
// realignment and a confirmed final leg.
func (c *Controller) portKeyInitResilient(a string, pa int, b string, pb int) (KMPResult, error) {
	ha, err := c.handle(a)
	if err != nil {
		return KMPResult{}, err
	}
	hb, err := c.handle(b)
	if err != nil {
		return KMPResult{}, err
	}
	var res KMPResult
	pol := c.retryPolicy()
	for attempt := 0; ; attempt++ {
		err = c.tryPortKeyInit(ha, pa, hb, pb, &res)
		if err == nil || errors.Is(err, ErrQuarantined) || attempt >= pol.FlowRetries {
			return res, err
		}
	}
}

// tryPortKeyInit runs one full port-key initialization: realign the two
// slots' install counters if an earlier exchange left them unequal, then
// the five legs of Fig. 14(c), with the response-less fifth leg confirmed
// by reading the initiator's slot version and resent until it lands.
func (c *Controller) tryPortKeyInit(ha *swHandle, pa int, hb *swHandle, pb int, res *KMPResult) error {
	return c.tryPortKeyInitFenced(ha, pa, hb, pb, res, nil)
}

// tryPortKeyInitFenced is tryPortKeyInit gated by an optional epoch fence:
// the fence runs before the realign phase, before each protocol leg, and
// before every resend of the confirm loop, so a superseded repair attempt
// stops where it stands instead of installing on top of its successor's
// key state.
func (c *Controller) tryPortKeyInitFenced(ha *swHandle, pa int, hb *swHandle, pb int, res *KMPResult, fence func() error) error {
	if fence != nil {
		if err := fence(); err != nil {
			return err
		}
	}
	verA, err := c.readPortVer(ha, pa, res)
	if err != nil {
		return err
	}
	verB, err := c.readPortVer(hb, pb, res)
	if err != nil {
		return err
	}
	if verA != verB {
		skew := &KeySkewError{A: ha.name, PA: pa, B: hb.name, PB: pb, VerA: verA, VerB: verB}
		if err := c.realignPortSlots(ha, pa, verA, hb, pb, verB, res); err != nil {
			return wrapSkew(err, skew)
		}
		if int8(verB-verA) > 0 {
			verA = verB
		} else {
			verB = verA
		}
	}
	want := verA + 1
	if fence != nil {
		if err := fence(); err != nil {
			return err
		}
	}

	// Legs 1-2: portKeyInit to A; A answers with its ADHKD1.
	req, err := ha.signedMessage(core.HdrKeyExch, core.MsgPortKeyInit, nil,
		&core.KxPayload{Port: uint16(pa)})
	if err != nil {
		return err
	}
	x, err := c.transact(ha, req, true)
	res.account(x)
	if err != nil {
		return err
	}
	if len(x.resp) != 1 || x.resp[0].MsgType != core.MsgADHKD1 {
		return fmt.Errorf("controller: %s: unexpected portKeyInit response", ha.name)
	}
	pk1, s1 := x.resp[0].Kx.PK, x.resp[0].Kx.Salt
	if fence != nil {
		if err := fence(); err != nil {
			return err
		}
	}

	// Legs 3-4: redirect ADHKD1 to B; the verified ADHKD2 response proves
	// B installed (signed-before-install), so B needs no confirm read.
	req, err = hb.signedMessage(core.HdrKeyExch, core.MsgADHKD1, nil,
		&core.KxPayload{Port: uint16(pb), PK: pk1, Salt: s1})
	if err != nil {
		return err
	}
	x, err = c.transact(hb, req, true)
	res.account(x)
	res.RTT += SignCost + VerifyCost
	if err != nil {
		return err
	}
	if len(x.resp) != 1 || x.resp[0].MsgType != core.MsgADHKD2 {
		return fmt.Errorf("controller: %s: unexpected redirected ADHKD response", hb.name)
	}
	pk2, s2 := x.resp[0].Kx.PK, x.resp[0].Kx.Salt

	// Leg 5: redirect ADHKD2 back to A. No response exists to retransmit
	// on, so confirmation is by state: read pa_ver[pa] and resend the same
	// bytes until the install shows. Duplicates of an already-processed
	// leg are absorbed by the agent's idempotency cache.
	req, err = ha.signedMessage(core.HdrKeyExch, core.MsgADHKD2, nil,
		&core.KxPayload{Port: uint16(pa), PK: pk2, Salt: s2})
	if err != nil {
		return err
	}
	pol := c.retryPolicy()
	for attempt := 1; attempt <= pol.MaxAttempts; attempt++ {
		if fence != nil {
			if err := fence(); err != nil {
				return err
			}
		}
		if wait := pol.backoff(attempt); wait > 0 {
			res.RTT += wait
			c.advanceClock(wait)
		}
		x, lerr := c.transact(ha, req, false)
		res.account(x)
		res.RTT += SignCost
		if lerr != nil && errors.Is(lerr, ErrQuarantined) {
			return lerr
		}
		// Even a nominally failed send may have landed (an alert only
		// proves one mangled copy); the version read is the truth.
		got, err := c.readPortVer(ha, pa, res)
		if err != nil {
			return err
		}
		if got == want {
			return nil
		}
	}
	c.noteFailure(ha)
	return fmt.Errorf("%w: %s: port %d install never confirmed", ErrTimeout, ha.name, pa)
}

// portKeyUpdateResilient is the retried form of Fig. 14(d). The update's
// two DP-DP legs run under the current shared port key, so it only works
// from an aligned state; any partial outcome (one side installed) is
// repaired by falling back to a full, realigning port-key init.
func (c *Controller) portKeyUpdateResilient(a string, pa int) (KMPResult, error) {
	ha, err := c.handle(a)
	if err != nil {
		return KMPResult{}, err
	}
	peer, ok := c.peerOf(a, pa)
	if !ok {
		return KMPResult{}, fmt.Errorf("controller: %s port %d has no registered peer", a, pa)
	}
	hb, err := c.handle(peer.sw)
	if err != nil {
		return KMPResult{}, err
	}
	pb := peer.port
	var res KMPResult
	pol := c.retryPolicy()

	verA0, err := c.readPortVer(ha, pa, &res)
	if err != nil {
		return res, err
	}
	verB0, err := c.readPortVer(hb, pb, &res)
	if err != nil {
		return res, err
	}
	if verA0 != verB0 {
		// Drifted before we even started: no shared port key exists for
		// the DP-DP legs to authenticate under. Rebuild via init, and if
		// even that fails surface the skew as a typed cause — the caller
		// must resync (full init), not merely retry the update.
		skew := &KeySkewError{A: a, PA: pa, B: peer.sw, PB: pb, VerA: verA0, VerB: verB0}
		err = c.tryPortKeyInit(ha, pa, hb, pb, &res)
		return res, wrapSkew(err, skew)
	}
	want := verA0 + 1

	for attempt := 0; attempt <= pol.FlowRetries; attempt++ {
		req, err := ha.signedMessage(core.HdrKeyExch, core.MsgPortKeyUpdate, nil,
			&core.KxPayload{Port: uint16(pa)})
		if err != nil {
			return res, err
		}
		x, lerr := c.transact(ha, req, false)
		res.account(x)
		res.RTT += SignCost
		if lerr != nil && errors.Is(lerr, ErrQuarantined) {
			return res, lerr
		}
		// The command may have landed even if every copy we watched was
		// mangled; the paired version reads below are the truth.
		verA, err := c.readPortVer(ha, pa, &res)
		if err != nil {
			return res, err
		}
		verB, err := c.readPortVer(hb, pb, &res)
		if err != nil {
			return res, err
		}
		switch {
		case verA == want && verB == want:
			// Both DP-DP legs landed; count them like the legacy flow.
			if rb, eerr := req.Encode(); eerr == nil {
				res.Messages += 2
				res.Bytes += 2 * len(rb)
			}
			return res, nil
		case verA == verA0 && verB == verB0:
			// Nothing moved: the command or the first DP-DP leg was lost.
			// A fresh command restarts cleanly (the initiator's stashed
			// nonce is simply overwritten).
			continue
		default:
			// Partial: one side installed, the other did not (a lost
			// ADHKD2 leg). The shared key is gone; realign the counters
			// and rebuild with a full init. A failure keeps the skew as
			// its typed cause so callers know a resync is still owed.
			skew := &KeySkewError{A: a, PA: pa, B: peer.sw, PB: pb, VerA: verA, VerB: verB}
			err = c.tryPortKeyInit(ha, pa, hb, pb, &res)
			return res, wrapSkew(err, skew)
		}
	}
	return res, fmt.Errorf("%w: %s: port %d update never took effect", ErrTimeout, ha.name, pa)
}

// readPortVer reads a port slot's install counter (pa_ver[port]).
func (c *Controller) readPortVer(h *swHandle, port int, res *KMPResult) (uint8, error) {
	v, x, err := c.regRead(h, core.RegVer, uint32(port))
	res.account(x)
	res.RTT += SignCost + VerifyCost
	return uint8(v), err
}

// realignPortSlots restores the paired-install invariant on a link whose
// ends disagree: the lagging side is driven through controller-played
// ADHKD exchanges (one per missing install) against its port slot. The
// keys these installs derive are throwaways — known to the controller and
// the lagging switch only — valid solely to make the counters equal; the
// caller must follow with a full port-key init to establish a usable
// shared key at equal version numbers on both ends (the DP-DP probe
// authentication of §VII selects keys by version tag, so equal numbering
// is part of the contract, not cosmetics).
func (c *Controller) realignPortSlots(ha *swHandle, pa int, verA uint8, hb *swHandle, pb int, verB uint8, res *KMPResult) error {
	diff := int8(verA - verB)
	lagH, lagPort, n := hb, pb, int(diff)
	if diff < 0 {
		lagH, lagPort, n = ha, pa, int(-diff)
	}
	for i := 0; i < n; i++ {
		adhkd := core.NewADHKD(lagH.cfg, c.rng)
		req, err := lagH.signedMessage(core.HdrKeyExch, core.MsgADHKD1, nil,
			&core.KxPayload{Port: uint16(lagPort), PK: adhkd.PK1(), Salt: adhkd.S1})
		if err != nil {
			return err
		}
		x, err := c.transact(lagH, req, true)
		res.account(x)
		res.RTT += SignCost + VerifyCost
		if err != nil {
			return fmt.Errorf("controller: realign %s port %d: %w", lagH.name, lagPort, err)
		}
		if len(x.resp) != 1 || x.resp[0].MsgType != core.MsgADHKD2 {
			return fmt.Errorf("controller: realign %s port %d: unexpected response", lagH.name, lagPort)
		}
	}
	return nil
}

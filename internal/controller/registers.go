package controller

import (
	"fmt"
	"time"

	"p4auth/internal/core"
	"p4auth/internal/obs"
)

// ReadRegister performs an authenticated register read (the P4Auth path of
// Fig. 8/15): a signed readReq PacketOut, digest-verified ack PacketIn.
// With a retransmission policy set, lost or corrupted rounds are retried.
func (c *Controller) ReadRegister(sw, register string, index uint32) (uint64, time.Duration, error) {
	h, err := c.handle(sw)
	if err != nil {
		return 0, 0, err
	}
	value, x, err := c.regRead(h, register, index)
	lat := x.lat + SignCost + VerifyCost
	k := c.obsv()
	if err == nil {
		k.readOK.Inc()
		k.readNs.Observe(uint64(lat))
	} else {
		k.readErr.Inc()
	}
	return value, lat, err
}

// WriteRegister performs an authenticated register write. With crash
// safety enabled the write is journaled: an intent record lands in the
// store before the first wire send and is settled (deleted on success,
// marked failed otherwise) before this returns — so the only way an
// intent survives is a crash mid-write, exactly the case recovery must
// disambiguate by read-back.
func (c *Controller) WriteRegister(sw, register string, index uint32, value uint64) (time.Duration, error) {
	h, err := c.handle(sw)
	if err != nil {
		return 0, err
	}
	// The journal record is the handle's scratch, so intent, exchange and
	// settle run under one hold of opMu.
	h.opMu.Lock()
	j, jerr := c.walBegin(h, []RegWrite{{register, index, value}})
	if jerr != nil {
		h.opMu.Unlock()
		return 0, fmt.Errorf("controller: journal write intent: %w", jerr)
	}
	x, err := c.regWriteLocked(h, register, index, value)
	c.walSettle(h, j, err)
	h.opMu.Unlock()
	lat := x.lat + SignCost + VerifyCost
	k := c.obsv()
	if err == nil {
		k.writeOK.Inc()
		k.writeNs.Observe(uint64(lat))
	} else {
		k.writeErr.Inc()
		k.writeDropped.Inc()
		k.audit(obs.EvWriteDropped, sw, causeOf(err), 0, value)
	}
	return lat, err
}

// regRead is the transact-based register read used by both the public API
// and the KMP recovery procedures (which need the traffic accounting).
// It is allocation-free on the happy path: the request is built in the
// handle's scratch under opMu and the response is consumed before the
// lock is released (x.resp never escapes).
func (c *Controller) regRead(h *swHandle, register string, index uint32) (uint64, xfer, error) {
	h.opMu.Lock()
	defer h.opMu.Unlock()
	return c.regReadLocked(h, register, index)
}

// regReadLocked is regRead for a caller already holding h.opMu.
func (c *Controller) regReadLocked(h *swHandle, register string, index uint32) (uint64, xfer, error) {
	ri, err := h.info.RegisterByName(register)
	if err != nil {
		return 0, xfer{}, err
	}
	req, err := h.scratchRequest(core.MsgReadReq, ri.ID, index, 0)
	if err != nil {
		return 0, xfer{}, err
	}
	x, err := c.transactLocked(h, req, true)
	resp := x.resp
	x.resp = nil
	if err != nil {
		return 0, x, err
	}
	if len(resp) != 1 {
		return 0, x, fmt.Errorf("controller: %s: %d responses to readReq", h.name, len(resp))
	}
	r := resp[0]
	if r.MsgType == core.MsgNAck {
		return 0, x, fmt.Errorf("%w: read %s[%d] on %s", ErrNAck, register, index, h.name)
	}
	value := r.Reg.Value
	if h.cfg.Encrypt {
		key, err := h.keys.At(core.KeyIndexLocal, r.KeyVersion)
		if err != nil {
			return 0, x, err
		}
		value = core.EncryptResponseValue(h.dig, key, r.SeqNum, value)
	}
	return value, x, nil
}

// regWrite is the transact-based register write (same zero-allocation
// discipline as regRead; the §XI encrypt-then-MAC variant is handled
// inside scratchRequest, which reserves the sequence number before
// encrypting).
func (c *Controller) regWrite(h *swHandle, register string, index uint32, value uint64) (xfer, error) {
	h.opMu.Lock()
	defer h.opMu.Unlock()
	return c.regWriteLocked(h, register, index, value)
}

// regWriteLocked is regWrite for a caller already holding h.opMu.
func (c *Controller) regWriteLocked(h *swHandle, register string, index uint32, value uint64) (xfer, error) {
	ri, err := h.info.RegisterByName(register)
	if err != nil {
		return xfer{}, err
	}
	req, err := h.scratchRequest(core.MsgWriteReq, ri.ID, index, value)
	if err != nil {
		return xfer{}, err
	}
	x, err := c.transactLocked(h, req, true)
	resp := x.resp
	x.resp = nil
	if err != nil {
		return x, err
	}
	if len(resp) != 1 {
		return x, fmt.Errorf("controller: %s: %d responses to writeReq", h.name, len(resp))
	}
	if resp[0].MsgType == core.MsgNAck {
		return x, fmt.Errorf("%w: write %s[%d] on %s", ErrNAck, register, index, h.name)
	}
	return x, nil
}

// ReadRegisterInsecure is the DP-Reg-RW baseline read: same PacketOut
// path, no digests (requires a switch built with Config.Insecure).
func (c *Controller) ReadRegisterInsecure(sw, register string, index uint32) (uint64, time.Duration, error) {
	return c.insecureRequest(sw, core.MsgReadReq, register, index, 0)
}

// WriteRegisterInsecure is the DP-Reg-RW baseline write.
func (c *Controller) WriteRegisterInsecure(sw, register string, index uint32, value uint64) (time.Duration, error) {
	_, lat, err := c.insecureRequest(sw, core.MsgWriteReq, register, index, value)
	return lat, err
}

// insecureRequest is one unsigned register request of the DP-Reg-RW
// baseline, built, sent and answered in the handle's scratch under opMu
// like a protected one, so the two differ only by the digests. It
// returns the value the ack carries.
func (c *Controller) insecureRequest(sw string, msgType uint8, register string, index uint32, value uint64) (uint64, time.Duration, error) {
	h, err := c.handle(sw)
	if err != nil {
		return 0, 0, err
	}
	ri, err := h.info.RegisterByName(register)
	if err != nil {
		return 0, 0, err
	}
	h.opMu.Lock()
	defer h.opMu.Unlock()
	h.txReg = core.RegPayload{RegID: ri.ID, Index: index, Value: value}
	h.txMsg = core.Message{
		Header: core.Header{HdrType: core.HdrRegister, MsgType: msgType, SeqNum: h.seq.Next()},
		Reg:    &h.txReg,
	}
	h.encBuf = h.txMsg.AppendEncode(h.encBuf[:0])
	resp, lat, _, _, err := c.exchangeBytesLocked(h, h.encBuf)
	if err != nil {
		return 0, lat, err
	}
	if len(resp) != 1 || resp[0].MsgType != core.MsgAck || resp[0].Reg == nil {
		op := "read"
		if msgType == core.MsgWriteReq {
			op = "write"
		}
		return 0, lat, fmt.Errorf("controller: %s: insecure %s failed", sw, op)
	}
	_ = h.seq.Settle(resp[0].SeqNum)
	return resp[0].Reg.Value, lat, nil
}

// ReadRegisterAPI is the P4Runtime baseline read: the full API stack
// (agent, SDK, driver) rather than PacketOut, per §IX-B's first variant.
func (c *Controller) ReadRegisterAPI(sw, register string, index uint32) (uint64, time.Duration, error) {
	h, err := c.handle(sw)
	if err != nil {
		return 0, 0, err
	}
	ri, err := h.info.RegisterByName(register)
	if err != nil {
		return 0, 0, err
	}
	v, cost, err := h.host.APIRegisterRead(ri.ID, index)
	return v, cost + 2*h.linkLat, err
}

// WriteRegisterAPI is the P4Runtime baseline write.
func (c *Controller) WriteRegisterAPI(sw, register string, index uint32, value uint64) (time.Duration, error) {
	h, err := c.handle(sw)
	if err != nil {
		return 0, err
	}
	ri, err := h.info.RegisterByName(register)
	if err != nil {
		return 0, err
	}
	cost, err := h.host.APIRegisterWrite(ri.ID, index, value)
	return cost + 2*h.linkLat, err
}

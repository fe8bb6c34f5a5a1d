package controller

import (
	"errors"
	"fmt"
	"time"

	"p4auth/internal/core"
	"p4auth/internal/crypto"
	"p4auth/internal/obs"
)

// Windowed authenticated transport (the pipelined C-DP path).
//
// The serial register APIs complete one signed request per agent I/O
// round trip, so the switch agent's PacketIOBase dispatch cost and the
// management-link RTT bound throughput. The batch engine below keeps a
// window of N signed requests in flight per switch: one agent I/O
// transaction carries the whole window down (PacketOutBatch pays the
// dispatch once), responses complete out of order keyed by seqNum, and
// unanswered entries retransmit under the same policy as transact.
//
// Replay-floor discipline — why out-of-order completion is safe:
//
//   - Requests are (re)signed at send time, so sequence numbers on the
//     wire are always ascending in send order and the data plane's
//     replay floor (a RegRMW max over pa_seq) only ever moves up.
//   - A retransmitted entry resends the SAME bytes: if the original was
//     processed and only its response was lost, the agent's idempotency
//     cache replays the cached response without touching the floor.
//   - If the floor overtook a lost entry's sequence number (a later
//     window member landed first), the resend draws a verified REPLAY
//     alert; the entry is then re-signed with a fresh sequence number
//     above the floor. The floor never moves down, so a stale number is
//     abandoned, never replayed — reordering cannot reopen a replay
//     window.
//   - A replay rejection that no observed settle explains (the rejected
//     number is above everything the switch provably accepted) means the
//     floor itself was restored ahead of the counter — a lease-bumped
//     snapshot. The counter is skipped forward one core.FloorLease, same
//     as the serial engine.

// RegWrite is one write in a batched or pipelined submission.
type RegWrite struct {
	Register string
	Index    uint32
	Value    uint64
}

// RegRead is one read in a batched submission.
type RegRead struct {
	Register string
	Index    uint32
}

// BatchResult reports one pipelined batch. Entries fail independently:
// Errs[i] is nil when entry i completed and settled.
type BatchResult struct {
	// Lat is the modeled wall time for the whole batch, including
	// controller-side sign/verify costs and retransmission backoff.
	Lat time.Duration
	// Rounds is the number of windowed wire rounds (1 when nothing was
	// lost and the batch fit one window).
	Rounds int
	// Values holds per-entry read results (reads only; zero for writes
	// and failed entries).
	Values []uint64
	// Errs is the per-entry outcome, indexed like the submission.
	Errs []error
	// Failed counts non-nil Errs.
	Failed int
}

// Err joins the per-entry failures (nil when the whole batch landed).
func (br *BatchResult) Err() error { return errors.Join(br.Errs...) }

// batchEntry is one in-flight operation of a windowed batch.
type batchEntry struct {
	register string
	regID    uint32
	index    uint32
	value    uint64
	read     bool

	seq     uint32
	wire    []byte
	signed  bool
	resign  bool // replay floor passed seq; next send needs a fresh number
	replays int
	sends   int
	done    bool
	val     uint64
	err     error
}

// WriteRegisterBatch performs authenticated register writes through the
// windowed transport, keeping up to window requests in flight. With
// crash safety enabled the whole batch is journaled as ONE group-commit
// record before the first wire send and settled once at the end —
// per-entry exactly-once-or-failed is preserved: a crash mid-batch
// leaves the record's intents behind for recovery's read-back, and a
// live controller rewrites each entry's final state. The returned error
// joins the per-entry failures; inspect BatchResult.Errs for detail.
func (c *Controller) WriteRegisterBatch(sw string, window int, writes []RegWrite) (BatchResult, error) {
	h, err := c.handle(sw)
	if err != nil {
		return BatchResult{}, err
	}
	jid, jerr := c.walBeginBatch(sw, writes)
	if jerr != nil {
		return BatchResult{}, fmt.Errorf("controller: journal batch intent: %w", jerr)
	}
	entries := make([]batchEntry, len(writes))
	for i, w := range writes {
		entries[i] = batchEntry{register: w.Register, index: w.Index, value: w.Value}
		if ri, rerr := h.info.RegisterByName(w.Register); rerr != nil {
			entries[i].done, entries[i].err = true, rerr
		} else {
			entries[i].regID = ri.ID
		}
	}
	br := c.runBatch(h, entries, window)
	c.walSettleBatch(sw, jid, entries)
	return br, br.Err()
}

// ReadRegisterBatch performs authenticated register reads through the
// windowed transport. Values are indexed like the submission; failed
// entries read as zero with the error in BatchResult.Errs.
func (c *Controller) ReadRegisterBatch(sw string, window int, reads []RegRead) (BatchResult, error) {
	h, err := c.handle(sw)
	if err != nil {
		return BatchResult{}, err
	}
	entries := make([]batchEntry, len(reads))
	for i, r := range reads {
		entries[i] = batchEntry{register: r.Register, index: r.Index, read: true}
		if ri, rerr := h.info.RegisterByName(r.Register); rerr != nil {
			entries[i].done, entries[i].err = true, rerr
		} else {
			entries[i].regID = ri.ID
		}
	}
	br := c.runBatch(h, entries, window)
	return br, br.Err()
}

// runBatch drives a windowed batch to completion under the handle's
// operation lock: gather the oldest incomplete entries up to the window,
// (re)sign what needs signing, put the window on the wire as one agent
// I/O transaction, and match verified responses back by sequence number.
func (c *Controller) runBatch(h *swHandle, entries []batchEntry, window int) BatchResult {
	if window < 1 {
		window = 1
	}
	pol := c.retryPolicy()
	var br BatchResult
	br.Errs = make([]error, len(entries))
	br.Values = make([]uint64, len(entries))

	h.opMu.Lock()
	defer h.opMu.Unlock()

	resilient := pol.MaxAttempts > 1
	if resilient && c.quarantined(h.name) {
		qerr := fmt.Errorf("%w: %s", ErrQuarantined, h.name)
		for i := range entries {
			if !entries[i].done {
				entries[i].done, entries[i].err = true, qerr
			}
		}
		return c.finishBatch(h, &br, entries)
	}

	bySeq := make(map[uint32]*batchEntry, window)
	wires := make([][]byte, 0, window)
	open := make([]*batchEntry, 0, window)
	timedOut := false
	// floorSeen is the controller's lower bound on the switch's replay
	// floor: the highest sequence number the switch has provably accepted
	// (settled by a verified non-alert response). Any in-flight entry
	// below it is already overtaken, so retransmitting its bytes can only
	// draw a replay alert (or hit the idempotency cache); re-signing it
	// proactively saves the dead round.
	var floorSeen uint32

	for {
		// Gather the window: oldest incomplete entries in submission
		// order, failing the ones whose retransmission budget is spent.
		open = open[:0]
		for i := range entries {
			e := &entries[i]
			if e.done {
				continue
			}
			if e.sends >= pol.MaxAttempts {
				e.done = true
				e.err = fmt.Errorf("%w: %s seq %d (%d attempts)",
					ErrTimeout, h.name, e.seq, e.sends)
				timedOut = true
				continue
			}
			if len(open) < window {
				open = append(open, e)
			}
		}
		if len(open) == 0 {
			break
		}

		// Backoff before retransmission rounds, paced by the window's
		// most-retried entry (first sends wait nothing).
		att := 1
		for _, e := range open {
			if e.sends+1 > att {
				att = e.sends + 1
			}
		}
		if wait := pol.backoff(att); wait > 0 {
			br.Lat += wait
			c.advanceClock(wait)
		}

		// Sign at send time: fresh entries and replay-rejected entries
		// take their sequence numbers here, in send order, so numbers on
		// the wire ascend and the replay floor stays behind every entry
		// still awaiting first delivery.
		wires = wires[:0]
		for _, e := range open {
			if !e.signed || e.resign {
				if e.signed {
					// Abandoning the stale number: the floor is past it,
					// so no response for it can ever settle.
					delete(bySeq, e.seq)
					_ = h.seq.Settle(e.seq)
				}
				if serr := c.signBatchEntry(h, e); serr != nil {
					e.done, e.err = true, serr
					continue
				}
				br.Lat += SignCost
				bySeq[e.seq] = e
			}
			wires = append(wires, e.wire)
			e.sends++
		}
		if len(wires) == 0 {
			continue
		}

		resp, lat, xerr := c.exchangeBatchBytesLocked(h, wires)
		br.Lat += lat
		br.Rounds++
		if xerr != nil {
			// A dead controller (or switch I/O fault) fails everything
			// still in flight; per-entry retries are pointless.
			for i := range entries {
				if !entries[i].done {
					entries[i].done, entries[i].err = true, xerr
				}
			}
			break
		}

		// One VerifyBatch per key version replaces per-response Verify:
		// the digest kernel's key setup is paid once per window and the
		// verdicts come back positionally, so the settle loop below is
		// pure bookkeeping. Alert/settle side effects stay in response
		// order, identical to the per-response path.
		c.verifyResponses(h, resp)
		for i, r := range resp {
			if !h.vfyMember[i] {
				continue // unverifiable version: the entry just retries
			}
			if !h.vfyOK[i] {
				c.noteAlert(h.name, core.AlertBadDigest, r.SeqNum, CauseResponseDigest)
				continue
			}
			br.Lat += VerifyCost
			e, ok := bySeq[r.SeqNum]
			if !ok || e.done {
				continue // duplicate or stale (idempotency-cache replay)
			}
			if r.HdrType == core.HdrAlert {
				cause := CauseRequestMangled
				if r.MsgType == core.AlertReplay {
					cause = CauseStaleSeq
				}
				c.noteAlert(h.name, r.MsgType, r.SeqNum, cause)
				if r.MsgType == core.AlertReplay {
					// The floor moved past this entry: fresh number next
					// round.
					e.resign = true
					e.replays++
					if r.SeqNum > floorSeen {
						// The rejection is not explained by anything we saw
						// settle, so the switch's floor was restored ahead
						// of our counter (a lease-bumped snapshot). Jump
						// the counter like the serial engine does.
						h.seq.SkipAhead(core.FloorLease)
						c.noteFloorBump(h, CauseRestoredFloor, r.SeqNum)
					}
				}
				// BadDigest: mangled in flight; the same bytes go again.
				continue
			}
			if h.seq.Settle(r.SeqNum) != nil {
				continue
			}
			delete(bySeq, r.SeqNum)
			e.done = true
			if r.SeqNum > floorSeen {
				floorSeen = r.SeqNum
			}
			if r.MsgType == core.MsgNAck {
				op := "write"
				if e.read {
					op = "read"
				}
				e.err = fmt.Errorf("%w: %s %s[%d] on %s", ErrNAck, op, e.register, e.index, h.name)
				continue
			}
			if e.read {
				v := r.Reg.Value
				if h.cfg.Encrypt {
					// Resolvable by construction: vfyMember[i] held above.
					key, _ := h.keys.At(core.KeyIndexLocal, r.KeyVersion)
					v = core.EncryptResponseValue(h.dig, key, r.SeqNum, v)
				}
				e.val = v
			}
		}

		// Proactive re-sign: an unanswered entry whose number the floor has
		// provably overtaken would burn its next send on a certain replay
		// rejection; give it a fresh number instead. (If its write actually
		// landed and only the response was lost, re-driving the same
		// absolute value is idempotent — the same convergence rule the
		// crash-recovery read-back relies on.)
		for _, e := range bySeq {
			if !e.done && !e.resign && e.seq < floorSeen {
				e.resign = true
			}
		}
	}

	if resilient {
		if timedOut {
			c.noteFailure(h)
		} else {
			c.noteSuccess(h)
		}
	}
	return c.finishBatch(h, &br, entries)
}

// growBools sizes a reusable bool scratch to n without allocating in
// steady state.
func growBools(b []bool, n int) []bool {
	for cap(b) < n {
		b = append(b[:cap(b)], false)
	}
	return b[:n]
}

// verifyResponses batch-verifies one wire round's responses, filling
// h.vfyMember (the response's key version resolves) and h.vfyOK (the
// digest verified) positionally. Responses are grouped by key version —
// in the steady state one group covers the whole window — and each group
// goes through a single crypto.VerifyBatch call, which pays the digest
// kernel's key setup once. Requires h.opMu.
func (c *Controller) verifyResponses(h *swHandle, resp []*core.Message) {
	n := len(resp)
	h.vfyOK = growBools(h.vfyOK, n)
	h.vfyMember = growBools(h.vfyMember, n)
	h.vfyDone = growBools(h.vfyDone, n)
	h.vfyBuf = h.vfyBuf[:0]
	h.vfyOffs = append(h.vfyOffs[:0], 0)
	for i, r := range resp {
		h.vfyBuf = r.AppendDigestInput(h.vfyBuf)
		h.vfyOffs = append(h.vfyOffs, len(h.vfyBuf))
		h.vfyOK[i], h.vfyDone[i] = false, false
		_, kerr := h.keys.At(core.KeyIndexLocal, r.KeyVersion)
		h.vfyMember[i] = kerr == nil
	}
	for i := 0; i < n; i++ {
		if !h.vfyMember[i] || h.vfyDone[i] {
			continue
		}
		ver := resp[i].KeyVersion
		key, _ := h.keys.At(core.KeyIndexLocal, ver)
		h.gDatas, h.gGot, h.gIdx = h.gDatas[:0], h.gGot[:0], h.gIdx[:0]
		for j := i; j < n; j++ {
			if h.vfyMember[j] && !h.vfyDone[j] && resp[j].KeyVersion == ver {
				h.gDatas = append(h.gDatas, h.vfyBuf[h.vfyOffs[j]:h.vfyOffs[j+1]])
				h.gGot = append(h.gGot, resp[j].Digest)
				h.gIdx = append(h.gIdx, j)
				h.vfyDone[j] = true
			}
		}
		h.gOK = growBools(h.gOK, len(h.gIdx))
		crypto.VerifyBatch(h.dig, key, h.gDatas, h.gGot, h.gOK)
		for k, j := range h.gIdx {
			h.vfyOK[j] = h.gOK[k]
		}
	}
}

// finishBatch folds per-entry outcomes into the result and accounts each
// entry: failed writes get an audit event naming the cause, so the chaos
// harness can demand an explanation for every dropped write.
func (c *Controller) finishBatch(h *swHandle, br *BatchResult, entries []batchEntry) BatchResult {
	k := c.obsv()
	for i := range entries {
		e := &entries[i]
		br.Errs[i] = e.err
		br.Values[i] = e.val
		switch {
		case e.err == nil && e.read:
			k.readOK.Inc()
		case e.err == nil:
			k.writeOK.Inc()
		case e.read:
			br.Failed++
			k.readErr.Inc()
		default:
			br.Failed++
			k.writeErr.Inc()
			k.writeDropped.Inc()
			k.audit(obs.EvWriteDropped, h.name, causeOf(e.err), e.seq, e.value)
		}
	}
	return *br
}

// signBatchEntry signs (or re-signs) one entry into its own wire buffer,
// reserving the sequence number at sign time. Requires h.opMu.
func (c *Controller) signBatchEntry(h *swHandle, e *batchEntry) error {
	key, ver, err := h.keys.Current(core.KeyIndexLocal)
	if err != nil {
		return err
	}
	seq := h.seq.Next()
	msgType := uint8(core.MsgWriteReq)
	value := e.value
	if e.read {
		msgType, value = core.MsgReadReq, 0
	} else if h.cfg.Encrypt {
		value = core.EncryptRequestValue(h.dig, key, seq, value)
	}
	reg := core.RegPayload{RegID: e.regID, Index: e.index, Value: value}
	m := core.Message{
		Header: core.Header{HdrType: core.HdrRegister, MsgType: msgType, SeqNum: seq, KeyVersion: ver},
		Reg:    &reg,
	}
	m.SignBuf(h.dig, key, &h.digBuf)
	e.wire = m.AppendEncode(e.wire[:0])
	e.seq, e.signed, e.resign = seq, true, false
	return nil
}

// exchangeBatchBytesLocked puts one window of encoded requests on the
// control channel as a single agent I/O transaction. Fault taps apply
// per packet in both directions; an undecodable PacketIn is dropped
// (the entry it answered simply retries) rather than failing the window.
// Requires h.opMu; responses alias the handle's receive scratch.
func (c *Controller) exchangeBatchBytesLocked(h *swHandle, wires [][]byte) (out []*core.Message, lat time.Duration, err error) {
	nbytes := 0
	for _, w := range wires {
		nbytes += len(w)
	}
	// Same rule as the serial path: a dead or fenced window never sends.
	if err := c.admitSend(len(wires), nbytes); err != nil {
		return nil, 0, err
	}
	outTap, inTap := h.controlTaps()

	sendable := wires
	if outTap != nil {
		sendable = sendable[:0:0]
		for _, w := range wires {
			if tw := outTap(w); tw != nil {
				sendable = append(sendable, tw)
			}
		}
	}
	if len(sendable) == 0 {
		// The whole window died on the controller->switch leg: silence,
		// one link delay, retries follow.
		return nil, h.linkLat, nil
	}
	if err := h.host.PacketOutBatchInto(sendable, &h.io); err != nil {
		return nil, 0, err
	}
	// One link round for the whole window: the agent transaction carries
	// all PacketOuts down and all PacketIns back together.
	lat = h.linkLat + h.io.Cost
	responded := false
	h.rx = h.rx[:0]
	nbuf := 0
	for _, pin := range h.io.PacketIns {
		if inTap != nil {
			pin = inTap(pin)
		}
		if pin == nil {
			continue
		}
		responded = true
		c.wire.received(pin)
		if nbuf == len(h.rxBufs) {
			h.rxBufs = append(h.rxBufs, &core.MessageBuf{})
		}
		r, derr := h.rxBufs[nbuf].Decode(pin)
		if derr != nil {
			continue // corrupt response: its entry retries
		}
		nbuf++
		h.rx = append(h.rx, r)
	}
	if responded {
		lat += h.linkLat
	}
	relayLat, rerr := c.relay(h, h.io.NetOut)
	if rerr != nil {
		return h.rx, lat, rerr
	}
	lat += relayLat
	return h.rx, lat, nil
}

// Pipeline is the asynchronous façade over the windowed transport: a
// per-switch writer that queues register writes and flushes a full
// window at a time. Submit returns immediately unless it completes a
// window (auto-flush); Flush drains the remainder. A Pipeline is NOT
// safe for concurrent use — one goroutine owns it, matching the
// one-writer-per-switch deployment model (the underlying batches still
// interleave safely with KMP flows on the same switch via the handle's
// operation lock).
type Pipeline struct {
	c      *Controller
	sw     string
	window int
	queue  []RegWrite

	// Totals accumulates the results of every flush so far.
	Totals BatchResult
}

// NewPipeline returns a pipelined writer toward one switch with the
// given in-flight window (clamped to >= 1).
func (c *Controller) NewPipeline(sw string, window int) (*Pipeline, error) {
	if _, err := c.handle(sw); err != nil {
		return nil, err
	}
	if window < 1 {
		window = 1
	}
	return &Pipeline{c: c, sw: sw, window: window}, nil
}

// Submit queues one write, flushing automatically when a full window has
// accumulated. The returned error reports a flush failure; queued-only
// submissions return nil.
func (p *Pipeline) Submit(w RegWrite) error {
	p.queue = append(p.queue, w)
	if len(p.queue) >= p.window {
		_, err := p.Flush()
		return err
	}
	return nil
}

// Flush drives every queued write to completion and folds the batch into
// Totals. A nil error means every entry settled.
func (p *Pipeline) Flush() (BatchResult, error) {
	if len(p.queue) == 0 {
		return BatchResult{}, nil
	}
	br, err := p.c.WriteRegisterBatch(p.sw, p.window, p.queue)
	p.queue = p.queue[:0]
	p.Totals.Lat += br.Lat
	p.Totals.Rounds += br.Rounds
	p.Totals.Failed += br.Failed
	p.Totals.Values = append(p.Totals.Values, br.Values...)
	p.Totals.Errs = append(p.Totals.Errs, br.Errs...)
	return br, err
}

package controller

import (
	"errors"
	"fmt"
	"time"

	"p4auth/internal/core"
	"p4auth/internal/netsim"
	"p4auth/internal/obs"
)

// ErrTimeout is returned when a control-channel exchange exhausts its
// retransmission budget without a verifiable response.
var ErrTimeout = errors.New("controller: retransmission budget exhausted")

// ErrQuarantined is returned for operations on a switch the health tracker
// has circuit-broken after repeated unreachability.
var ErrQuarantined = errors.New("controller: switch is quarantined")

// ErrKilled is returned by operations on a controller after Kill(): the
// crashed process can neither send nor persist.
var ErrKilled = errors.New("controller: controller process is dead")

// ErrFenced is returned when a send is refused by the lease fence: the
// controller replica no longer holds (or never held) the HA ownership
// lease at its epoch. A deposed active hits this on its first wire
// attempt after supersession — the write dies here, before any signed
// bytes leave the process.
var ErrFenced = errors.New("controller: send refused by lease fence")

// SetSendFence installs a fence consulted before every signed wire send
// (both the serial and the batch exchange path). A nil return admits the
// send; any error refuses it, and ErrFenced (possibly wrapped) marks a
// lease-fencing refusal for audit classification. The fence runs with no
// controller lock but the sending handle's opMu held and must not call
// back into this controller. A send that begins after SetSendFence has
// returned consults f.
func (c *Controller) SetSendFence(f func() error) {
	c.reconfigure(func(cfg *ctlConfig) { cfg.fence = f })
}

// AlertError is a verified data-plane alert that failed an exchange: the
// switch proved (under the shared key) that it rejected our request.
// Callers unwrap it with errors.As to distinguish a replay rejection —
// the restored-floor signature the recovery protocol heals by skipping
// the sequence counter forward — from a digest rejection, which signals
// key drift.
type AlertError struct {
	Switch string
	Reason uint8 // core.AlertBadDigest or core.AlertReplay
	Seq    uint32
}

func (e *AlertError) Error() string {
	return fmt.Sprintf("controller: %s raised alert reason %d for seq %d", e.Switch, e.Reason, e.Seq)
}

// The retry loop makes the two errors below on every tampered or silent
// attempt and drops them when a resend succeeds, so their text is built
// only when someone asks for it. Each reads and unwraps exactly as the
// fmt.Errorf it replaces.

// tamperedAlert is ErrTampered wrapping a verified alert:
// fmt.Errorf("%w: %w", ErrTampered, &AlertError{...}).
type tamperedAlert struct{ alert AlertError }

func (e *tamperedAlert) Error() string { return ErrTampered.Error() + ": " + e.alert.Error() }

func (e *tamperedAlert) Unwrap() []error { return []error{ErrTampered, &e.alert} }

// noResponse is an attempt that drew no PacketIn:
// fmt.Errorf("%w: no response from %s (seq %d, attempt %d)", ErrTimeout, ...).
type noResponse struct {
	sw      string
	seq     uint32
	attempt int
}

func (e *noResponse) Error() string {
	return fmt.Sprintf("%v: no response from %s (seq %d, attempt %d)", ErrTimeout, e.sw, e.seq, e.attempt)
}

func (e *noResponse) Unwrap() error { return ErrTimeout }

// RetryPolicy bounds the controller's retransmission behaviour on the
// control channel. The zero value and DefaultRetryPolicy (MaxAttempts 1)
// disable retransmission entirely, preserving the paper's exact message
// counts (Table III); SetRetryPolicy with MaxAttempts > 1 opts a
// controller into the resilient engine.
type RetryPolicy struct {
	// MaxAttempts is the number of times one message is sent before the
	// exchange fails with ErrTimeout. 1 = no retransmission (legacy).
	MaxAttempts int
	// BaseBackoff is the wait before the second attempt; attempt n waits
	// BaseBackoff << (n-2), capped at MaxBackoff. Deterministic: fault
	// injection under a seeded tap replays identically.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential schedule.
	MaxBackoff time.Duration
	// FlowRetries is how many times a multi-message KMP flow is re-run
	// from a clean, resynced key state after a transport failure.
	FlowRetries int
}

// DefaultRetryPolicy is the legacy single-shot behaviour.
var DefaultRetryPolicy = RetryPolicy{MaxAttempts: 1}

// ResilientRetryPolicy returns the recommended opt-in policy: enough
// budget to converge through 20% bidirectional loss with overwhelming
// probability, with sub-millisecond virtual backoff.
func ResilientRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 6,
		BaseBackoff: 100 * time.Microsecond,
		MaxBackoff:  2 * time.Millisecond,
		FlowRetries: 3,
	}
}

// backoff returns the deterministic wait before the given attempt
// (attempt 2 waits BaseBackoff; each further attempt doubles, capped).
// Doubling saturates at the top of the time.Duration range, so a huge
// attempt number with no MaxBackoff cannot overflow into a negative (and
// therefore zero-length) wait.
func (p RetryPolicy) backoff(attempt int) time.Duration {
	if attempt <= 1 || p.BaseBackoff <= 0 {
		return 0
	}
	const maxDuration = time.Duration(1<<63 - 1)
	d := p.BaseBackoff
	for i := 2; i < attempt; i++ {
		if p.MaxBackoff > 0 && d >= p.MaxBackoff {
			return p.MaxBackoff
		}
		if d > maxDuration/2 {
			d = maxDuration
			break
		}
		d *= 2
	}
	if p.MaxBackoff > 0 && d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	return d
}

// Clock is the virtual clock the retransmission engine waits on. A
// netsim.Sim satisfies it; without one the controller only accounts the
// backoff into the modeled latency.
type Clock interface {
	Advance(d time.Duration)
}

// HealthState classifies a switch's control-channel reachability.
type HealthState int

const (
	// Healthy: recent exchanges completed within the retry budget.
	Healthy HealthState = iota
	// Degraded: some exchanges exhausted their budget; the switch is
	// still served but the operator should investigate.
	Degraded
	// Quarantined: consecutive failures crossed the circuit-breaker
	// threshold; operations fail fast with ErrQuarantined until
	// ClearHealth.
	Quarantined
)

func (s HealthState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Quarantined:
		return "quarantined"
	}
	return fmt.Sprintf("HealthState(%d)", int(s))
}

// HealthPolicy sets the consecutive-failure thresholds of the per-switch
// circuit breaker. Failures are counted per exchange that exhausts its
// retransmission budget; any verified success resets the streak.
type HealthPolicy struct {
	DegradeAfter    int
	QuarantineAfter int
}

// DefaultHealthPolicy degrades after 2 consecutive budget exhaustions and
// quarantines after 4.
var DefaultHealthPolicy = HealthPolicy{DegradeAfter: 2, QuarantineAfter: 4}

// Health is a switch's reachability record.
type Health struct {
	State       HealthState
	Consecutive int // current failure streak
	Failures    int // total budget exhaustions
}

// SetRetryPolicy opts the controller into (or out of) the resilient
// exchange engine.
func (c *Controller) SetRetryPolicy(p RetryPolicy) {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	c.reconfigure(func(cfg *ctlConfig) { cfg.retry = p })
}

// SetHealthPolicy replaces the circuit-breaker thresholds.
func (c *Controller) SetHealthPolicy(p HealthPolicy) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.healthPol = p
}

// UseClock attaches a virtual clock (e.g. a netsim.Sim) that retransmission
// backoff advances.
func (c *Controller) UseClock(clk Clock) {
	c.reconfigure(func(cfg *ctlConfig) { cfg.clock = clk })
}

// advanceClock sleeps a backoff wait on the attached virtual clock, if
// any.
func (c *Controller) advanceClock(wait time.Duration) {
	if clk := c.cfg.Load().clock; clk != nil {
		clk.Advance(wait)
	}
}

// SetControlTaps installs fault-injection taps on a switch's control
// channel: out sees every PacketOut the controller emits, in sees every
// PacketIn before the controller parses it. A nil return drops the packet.
// Pass nil taps to clear.
func (c *Controller) SetControlTaps(sw string, out, in netsim.Tap) error {
	h, err := c.handle(sw)
	if err != nil {
		return err
	}
	h.taps.Store(&controlTaps{out: out, in: in})
	return nil
}

// SetLinkTap installs a tap on the DP-DP emissions leaving a switch port
// (relayed across the registered adjacency). A nil return drops the leg.
func (c *Controller) SetLinkTap(sw string, port int, tap netsim.Tap) error {
	if _, err := c.handle(sw); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if tap == nil {
		delete(c.linkTaps, portKey{sw, port})
	} else {
		c.linkTaps[portKey{sw, port}] = tap
	}
	return nil
}

// HealthOf returns the reachability record for a switch.
func (c *Controller) HealthOf(sw string) (Health, error) {
	if _, err := c.handle(sw); err != nil {
		return Health{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if h, ok := c.health[sw]; ok {
		return *h, nil
	}
	return Health{}, nil
}

// ClearHealth resets a switch's circuit breaker (the operator declaring it
// repaired).
func (c *Controller) ClearHealth(sw string) error {
	if _, err := c.handle(sw); err != nil {
		return err
	}
	c.mu.Lock()
	wasQuarantined := false
	if rec, ok := c.health[sw]; ok && rec.State == Quarantined {
		wasQuarantined = true
	}
	delete(c.health, sw)
	c.ailing.Store(int32(len(c.health)))
	c.mu.Unlock()
	if wasQuarantined {
		k := c.obsv()
		k.quarantineLeave.Inc()
		k.audit(obs.EvQuarantineLeave, sw, CauseOperatorClear, 0, 0)
	}
	return nil
}

func (c *Controller) retryPolicy() RetryPolicy { return c.cfg.Load().retry }

// noteSuccess resets a switch's failure streak.
func (c *Controller) noteSuccess(h *swHandle) {
	if c.ailing.Load() == 0 {
		return // no switch has a failure on record
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if rec, ok := c.health[h.name]; ok && rec.State != Quarantined {
		rec.Consecutive = 0
		rec.State = Healthy
	}
}

// noteFailure records a budget exhaustion and trips the circuit breaker at
// the policy thresholds, emitting an AlertUnreachable on quarantine.
func (c *Controller) noteFailure(h *swHandle) {
	c.mu.Lock()
	rec, ok := c.health[h.name]
	if !ok {
		rec = &Health{}
		c.health[h.name] = rec
		c.ailing.Store(int32(len(c.health)))
	}
	rec.Failures++
	rec.Consecutive++
	streak := rec.Consecutive
	pol := c.healthPol
	entered := false
	switch {
	case pol.QuarantineAfter > 0 && rec.Consecutive >= pol.QuarantineAfter:
		if rec.State != Quarantined {
			rec.State = Quarantined
			entered = true
		}
	case pol.DegradeAfter > 0 && rec.Consecutive >= pol.DegradeAfter:
		if rec.State == Healthy {
			rec.State = Degraded
		}
	}
	c.mu.Unlock()
	if entered {
		c.noteAlert(h.name, core.AlertUnreachable, 0, "")
		k := c.obsv()
		k.quarantineEnter.Inc()
		k.audit(obs.EvQuarantineEnter, h.name, CauseConsecutiveFailures, 0, uint64(streak))
	}
}

// quarantined reports whether the circuit breaker is open for a switch.
func (c *Controller) quarantined(name string) bool {
	if c.ailing.Load() == 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.health[name]
	return ok && rec.State == Quarantined
}

// xfer accounts one transact call: what was actually put on and taken off
// the wire, for KMPResult/Stats accounting under retransmission.
type xfer struct {
	resp      []*core.Message // verified responses (nil on failure)
	lat       time.Duration   // modeled wall time including backoff waits
	sends     int             // request transmissions (≥1)
	recvs     int             // PacketIns parsed (including bad ones)
	sentBytes int
	rcvdBytes int
}

// account folds a transact's traffic into a KMPResult.
func (r *KMPResult) account(x xfer) {
	r.Messages += x.sends + x.recvs
	r.Bytes += x.sentBytes + x.rcvdBytes
	r.RTT += x.lat
}

// errDecode marks a PacketIn that failed to parse — retryable, since a
// corrupted response says nothing about whether the request landed.
var errDecode = errors.New("controller: undecodable PacketIn")

// transactLocked runs one request through the retransmission engine:
// send, wait for a verifiable response (when wantResp), and resend the
// *same bytes* after a deterministic backoff otherwise. Resending
// identical bytes is safe end to end: the switch agent's idempotency cache
// replays the cached response for a duplicate whose response was lost,
// and the pipeline's replay defence only advances on digest-valid
// messages, so a dropped or corrupted attempt never consumes the sequence
// number. The caller holds h.opMu (the register path, the windowed batch
// engine and the confirmed KMP legs all build their requests in the
// handle's scratch); the returned responses alias its receive scratch and
// are valid only until the lock is released.
//
// With MaxAttempts == 1 it sends once, as a single-shot KMP leg does, but
// counts what crossed the wire and applies the recovery rule below, which
// a single-shot leg does not.
//
// One recovery rule rides on top: a final, verified REPLAY alert means the
// switch's replay floor is ahead of our sequence counter — the signature
// of a snapshot-restored peer (floors come back lease-bumped) or of a
// controller resumed from a stale snapshot. The failed transaction stays
// failed, but the counter is skipped past one FloorLease of headroom so
// the caller's next attempt (with a fresh sequence number) can land.
func (c *Controller) transactLocked(h *swHandle, req *core.Message, wantResp bool) (xfer, error) {
	x, err := c.transactOnceLocked(h, req, wantResp)
	if err != nil {
		var ae *AlertError
		if errors.As(err, &ae) && ae.Reason == core.AlertReplay {
			h.seq.SkipAhead(core.FloorLease)
			c.noteFloorBump(h, CauseReplayHeal, ae.Seq)
		}
	}
	return x, err
}

func (c *Controller) transactOnceLocked(h *swHandle, req *core.Message, wantResp bool) (xfer, error) {
	var x xfer
	// One policy for the whole transaction, whatever SetRetryPolicy does
	// meanwhile.
	pol := c.retryPolicy()
	resilient := pol.MaxAttempts > 1
	if resilient && c.quarantined(h.name) {
		return x, fmt.Errorf("%w: %s", ErrQuarantined, h.name)
	}
	h.encBuf = req.AppendEncode(h.encBuf[:0])
	data := h.encBuf
	var lastErr error
	for attempt := 1; attempt <= pol.MaxAttempts; attempt++ {
		if attempt > 1 {
			c.obsv().retransmits.Inc()
		}
		if wait := pol.backoff(attempt); wait > 0 {
			x.lat += wait
			c.advanceClock(wait)
		}
		final := attempt == pol.MaxAttempts
		resp, lat, sent, rcvd, err := c.exchangeBytesLocked(h, data)
		x.lat += lat
		x.sends++
		x.sentBytes += sent
		x.recvs += len(resp)
		x.rcvdBytes += rcvd
		if err != nil {
			if errors.Is(err, errDecode) && !final {
				lastErr = err
				continue
			}
			return x, err
		}
		if !wantResp {
			// Fire-and-forget: silence is the expected outcome and the
			// caller confirms through state (e.g. a pa_ver read). But a
			// verified alert coming back means the request was mangled in
			// flight — that attempt failed, so resend the clean bytes.
			if len(resp) > 0 {
				if _, verr := c.vetResponses(h, req, resp, final); verr != nil {
					lastErr = verr
					if !final {
						continue
					}
					if resilient {
						c.noteFailure(h)
					}
					return x, verr
				}
			}
			_ = h.seq.Settle(req.SeqNum)
			return x, nil
		}
		if len(resp) == 0 {
			lastErr = &noResponse{sw: h.name, seq: req.SeqNum, attempt: attempt}
			continue
		}
		ok, verr := c.vetResponses(h, req, resp, final)
		if verr == nil {
			x.resp = resp
			if resilient {
				c.noteSuccess(h)
			}
			return x, nil
		}
		lastErr = verr
		if !ok || final {
			return x, verr
		}
	}
	if resilient {
		c.noteFailure(h)
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("%w: %s seq %d", ErrTimeout, h.name, req.SeqNum)
	}
	if !errors.Is(lastErr, ErrTimeout) {
		lastErr = fmt.Errorf("%w: %s seq %d: last error: %v", ErrTimeout, h.name, req.SeqNum, lastErr)
	}
	return x, lastErr
}

// vetResponses authenticates a response set against its request. It
// returns retryable=true when a failure could be transient corruption (the
// caller may resend the same bytes). On non-final retryable failures the
// sequence number is left outstanding so the eventual good response can
// settle it; a final attempt settles a verified alert too, as a
// single-shot leg does. The caller holds h.opMu: the digest input is built
// in the handle's scratch.
func (c *Controller) vetResponses(h *swHandle, req *core.Message, resp []*core.Message, final bool) (retryable bool, err error) {
	r := resp[0]
	key, err := h.keys.At(core.KeyIndexLocal, r.KeyVersion)
	if err != nil {
		return true, fmt.Errorf("%w: unknown key version %d", ErrTampered, r.KeyVersion)
	}
	if !r.VerifyBuf(h.dig, key, &h.digBuf) {
		// Detection of misreported statistics (Fig. 9): the controller
		// itself raises the alert when a response fails verification.
		c.noteAlert(h.name, core.AlertBadDigest, r.SeqNum, CauseResponseDigest)
		return true, fmt.Errorf("%w: response digest mismatch on %s", ErrTampered, h.name)
	}
	if r.SeqNum != req.SeqNum {
		return true, fmt.Errorf("%w: response seq %d for request %d", ErrTampered, r.SeqNum, req.SeqNum)
	}
	if r.HdrType == core.HdrAlert {
		// A verified alert for our own sequence number means the request
		// was mangled in flight (the switch alerts before consuming the
		// sequence number) — resending the clean bytes can still succeed,
		// so only the final attempt settles and surfaces it.
		cause := CauseRequestMangled
		if r.MsgType == core.AlertReplay {
			cause = CauseStaleSeq
		}
		c.noteAlert(h.name, r.MsgType, r.SeqNum, cause)
		if final {
			_ = h.seq.Settle(r.SeqNum)
		}
		return true, &tamperedAlert{AlertError{Switch: h.name, Reason: r.MsgType, Seq: r.SeqNum}}
	}
	if err := h.seq.Settle(r.SeqNum); err != nil {
		return false, fmt.Errorf("%w: %v", ErrTampered, err)
	}
	return false, nil
}

// admitSend is the head of every wire send, serial or windowed: a killed
// controller sends nothing (in-flight operations die with the process and
// their results are moot), a fenced replica sends nothing (the lease no
// longer, or never did, name it, so the signed bytes must not reach the
// wire), and what is admitted is counted. It takes no lock: the fence is
// read from the published configuration, and the Kill flag is read again
// with the count, after the fence has run.
func (c *Controller) admitSend(msgs, bytes int) error {
	if c.wire.killed() {
		return ErrKilled
	}
	if fence := c.cfg.Load().fence; fence != nil {
		if err := fence(); err != nil {
			return err
		}
	}
	if !c.wire.admit(msgs) {
		return ErrKilled
	}
	c.wire.bytesSent.Add(uint64(bytes))
	return nil
}

// exchangeBytesLocked puts encoded request bytes on the control channel
// through the fault taps and returns parsed PacketIns. It is one attempt:
// no retries, no verification. Requires h.opMu: the switch I/O result and
// the decoded responses live in the handle's reusable scratch and are
// overwritten by the next exchange on this handle.
func (c *Controller) exchangeBytesLocked(h *swHandle, data []byte) (out []*core.Message, lat time.Duration, sentBytes, rcvdBytes int, err error) {
	if err := c.admitSend(1, len(data)); err != nil {
		return nil, 0, 0, 0, err
	}
	outTap, inTap := h.controlTaps()
	sentBytes = len(data)

	wire := data
	if outTap != nil {
		wire = outTap(wire)
	}
	if wire == nil {
		// Dropped on the controller->switch leg: the controller observes
		// only silence, exactly as with a lost response.
		return nil, h.linkLat, sentBytes, 0, nil
	}
	if err := h.host.PacketOutInto(wire, &h.io); err != nil {
		return nil, 0, sentBytes, 0, err
	}
	lat = h.linkLat + h.io.Cost
	responded := false
	h.rx = h.rx[:0]
	nbuf := 0
	for _, pin := range h.io.PacketIns {
		if inTap != nil {
			pin = inTap(pin)
		}
		if pin == nil {
			continue // dropped on the switch->controller leg
		}
		responded = true
		c.wire.received(pin)
		rcvdBytes += len(pin)
		if nbuf == len(h.rxBufs) {
			h.rxBufs = append(h.rxBufs, &core.MessageBuf{})
		}
		r, derr := h.rxBufs[nbuf].Decode(pin)
		if derr != nil {
			return h.rx, lat, sentBytes, rcvdBytes, fmt.Errorf("%w: %s: %v", errDecode, h.name, derr)
		}
		nbuf++
		h.rx = append(h.rx, r)
	}
	if responded {
		lat += h.linkLat
	}
	relayLat, err := c.relay(h, h.io.NetOut)
	if err != nil {
		return nil, lat, sentBytes, rcvdBytes, err
	}
	lat += relayLat
	return h.rx, lat, sentBytes, rcvdBytes, nil
}

package controller

// Observability wiring: every controller carries an obs.Observer (metrics
// registry + audit ring). Instruments are resolved once into a ctlObs and
// swapped atomically, so hot paths pay one atomic pointer load plus pure
// atomic updates — the WriteRegister 0 allocs/op budget is untouched.
// Audit causes are package-level constants: the ring stores string
// headers, never formatted text.

import (
	"errors"
	"sync/atomic"

	"p4auth/internal/core"
	"p4auth/internal/obs"
)

// Audit cause labels. Every rejection, floor bump, and dropped write names
// one of these; the chaos harness asserts none is empty.
const (
	// CauseResponseDigest: a response failed the controller's verification.
	CauseResponseDigest = "response-digest"
	// CauseRequestMangled: the switch alerted BadDigest on our request.
	CauseRequestMangled = "request-mangled"
	// CauseStaleSeq: the switch replay-rejected a sequence number its
	// floor had already passed.
	CauseStaleSeq = "stale-seq"
	// CauseReplayHeal: the serial engine skipped the counter a FloorLease
	// forward after a verified replay alert.
	CauseReplayHeal = "replay-alert-heal"
	// CauseRestoredFloor: the batch engine saw a replay rejection no
	// observed settle explains — the switch floor was restored ahead.
	CauseRestoredFloor = "restored-floor-lease"
	// CauseRetryBudget: the retransmission budget ran out.
	CauseRetryBudget = "retry-budget-exhausted"
	// CauseQuarantined: the circuit breaker was open.
	CauseQuarantined = "quarantined"
	// CauseKilled: the controller process was dead.
	CauseKilled = "controller-killed"
	// CauseFenced: the send was refused by the HA lease fence (deposed or
	// never-active replica).
	CauseFenced = "lease-fenced"
	// CauseNAck: the data plane rejected the operation.
	CauseNAck = "nacked"
	// CauseReplayRejected: the final outcome was a verified replay alert.
	CauseReplayRejected = "replay-rejected"
	// CauseDigestRejected: the final outcome was a verified digest alert.
	CauseDigestRejected = "digest-rejected"
	// CauseTampered: authentication failed without a verified alert.
	CauseTampered = "tampered"
	// CauseError: a failure outside the classified set.
	CauseError = "error"
	// CauseDPRelay: an alert PacketIn surfaced while relaying DP-DP
	// traffic (no controller request was involved).
	CauseDPRelay = "dp-relay"
	// CauseConsecutiveFailures: the failure streak crossed the threshold.
	CauseConsecutiveFailures = "consecutive-failures"
	// CauseOperatorClear: ClearHealth reopened a quarantined switch.
	CauseOperatorClear = "operator-clear"
	// CauseSwitchAheadResync: resync rolled a switch back one install.
	CauseSwitchAheadResync = "switch-ahead-resync"
	// CauseFactoryReset: recovery fell back to an out-of-band re-seed.
	CauseFactoryReset = "factory-reset"
	// Rollover flow labels.
	CauseLocalInit   = "local-init"
	CauseLocalUpdate = "local-update"
	CausePortInit    = "port-init"
	CausePortUpdate  = "port-update"
	CausePortRepair  = "port-repair"
	// WAL settle outcomes.
	CauseWALApplied   = "applied"
	CauseWALFailed    = "failed"
	CauseWALRecovered = "recovered-applied"
	CauseWALRedriven  = "redriven"
)

// ctlObs is the controller's pre-resolved instrument set.
type ctlObs struct {
	o *obs.Observer

	writeOK, writeErr *obs.Counter
	readOK, readErr   *obs.Counter
	writeDropped      *obs.Counter
	retransmits       *obs.Counter

	alertDigest, alertReplay, alertUnreachable *obs.Counter
	floorBumps                                 *obs.Counter

	rolloverBegin, rolloverCommit, rolloverRollback *obs.Counter
	eakFallback, seedUses                           *obs.Counter
	quarantineEnter, quarantineLeave                *obs.Counter
	walApplied, walFailed, walRedriven              *obs.Counter

	writeNs, readNs *obs.Histogram
}

func newCtlObs(o *obs.Observer) *ctlObs {
	m := o.Metrics
	return &ctlObs{
		o:                o,
		writeOK:          m.Counter("ctl.write_ok"),
		writeErr:         m.Counter("ctl.write_err"),
		readOK:           m.Counter("ctl.read_ok"),
		readErr:          m.Counter("ctl.read_err"),
		writeDropped:     m.Counter("ctl.write_dropped"),
		retransmits:      m.Counter("ctl.retransmits"),
		alertDigest:      m.Counter("ctl.alert_bad_digest"),
		alertReplay:      m.Counter("ctl.alert_replay"),
		alertUnreachable: m.Counter("ctl.alert_unreachable"),
		floorBumps:       m.Counter("ctl.floor_bumps"),
		rolloverBegin:    m.Counter("ctl.rollover_begin"),
		rolloverCommit:   m.Counter("ctl.rollover_commit"),
		rolloverRollback: m.Counter("ctl.rollover_rollback"),
		eakFallback:      m.Counter("ctl.eak_fallback"),
		seedUses:         m.Counter("ctl.seed_uses"),
		quarantineEnter:  m.Counter("ctl.quarantine_enter"),
		quarantineLeave:  m.Counter("ctl.quarantine_leave"),
		walApplied:       m.Counter("ctl.wal_applied"),
		walFailed:        m.Counter("ctl.wal_failed"),
		walRedriven:      m.Counter("ctl.wal_redriven"),
		writeNs:          m.Histogram("ctl.write_ns"),
		readNs:           m.Histogram("ctl.read_ns"),
	}
}

// audit appends one event to the shared ring. Allocation-free (actor and
// cause must be pre-existing strings).
func (k *ctlObs) audit(t obs.EventType, actor, cause string, seq uint32, value uint64) {
	k.o.Audit.Append(t, actor, cause, seq, value)
}

// obsv returns the current instrument set. One atomic load; never nil.
func (c *Controller) obsv() *ctlObs { return c.ob.Load() }

// Observer returns the controller's observability handle (metrics registry
// plus audit log), for inspection commands, bench reports, and tests.
func (c *Controller) Observer() *obs.Observer { return c.ob.Load().o }

// SetObserver replaces the controller's observer — the chaos harness
// installs one shared observer across controller generations so a rebuilt
// controller keeps appending to the same audit trail. Registered switches
// are re-wired (agent counters and data-plane counter mirrors) onto the
// new registry.
func (c *Controller) SetObserver(o *obs.Observer) {
	if o == nil {
		o = obs.NewObserver(0)
	}
	c.ob.Store(newCtlObs(o))
	for _, h := range c.cfg.Load().switches {
		c.wireSwitchObs(h, o)
	}
}

// wireSwitchObs points a switch's agent counters and data-plane counter
// mirror at the observer's registry.
func (c *Controller) wireSwitchObs(h *swHandle, o *obs.Observer) {
	h.host.Observe(o.Metrics)
	h.host.SW.MirrorCounters(o.Metrics, "dp."+h.name+".")
}

// noteAlert records an alert in the operator list, the metrics, and the
// audit log. Call WITHOUT c.mu held.
func (c *Controller) noteAlert(sw string, reason uint8, seq uint32, cause string) {
	c.mu.Lock()
	c.alerts = append(c.alerts, Alert{Switch: sw, Reason: reason, SeqNum: seq})
	c.mu.Unlock()
	k := c.obsv()
	switch reason {
	case core.AlertBadDigest:
		k.alertDigest.Inc()
		k.audit(obs.EvDigestMismatch, sw, cause, seq, 0)
	case core.AlertReplay:
		k.alertReplay.Inc()
		k.audit(obs.EvReplayRejected, sw, cause, seq, 0)
	case core.AlertUnreachable:
		k.alertUnreachable.Inc()
	}
}

// noteFloorBump records a sequence-counter skip (SkipAhead) with its
// cause; value is the counter's new next sequence number.
func (c *Controller) noteFloorBump(h *swHandle, cause string, seq uint32) {
	k := c.obsv()
	k.floorBumps.Inc()
	k.audit(obs.EvFloorBump, h.name, cause, seq, uint64(h.seq.Peek()))
}

// noteRollover wraps a KMP flow with begin/commit/rollback audit events.
// Call as: defer c.noteRollover(sw, flow, port)(errp).
func (c *Controller) noteRollover(sw, flow string, value uint64) func(err error) {
	k := c.obsv()
	k.rolloverBegin.Inc()
	k.audit(obs.EvRolloverBegin, sw, flow, 0, value)
	return func(err error) {
		k := c.obsv()
		if err == nil {
			k.rolloverCommit.Inc()
			k.audit(obs.EvRolloverCommit, sw, flow, 0, value)
			return
		}
		k.rolloverRollback.Inc()
		k.audit(obs.EvRolloverRollback, sw, causeOf(err), 0, value)
	}
}

// causeOf classifies a failure into a constant audit label.
func causeOf(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrQuarantined):
		return CauseQuarantined
	case errors.Is(err, ErrFenced):
		return CauseFenced
	case errors.Is(err, ErrKilled):
		return CauseKilled
	case errors.Is(err, ErrNAck):
		return CauseNAck
	}
	var ae *AlertError
	if errors.As(err, &ae) {
		if ae.Reason == core.AlertReplay {
			return CauseReplayRejected
		}
		return CauseDigestRejected
	}
	switch {
	case errors.Is(err, ErrTimeout):
		return CauseRetryBudget
	case errors.Is(err, ErrTampered):
		return CauseTampered
	}
	return CauseError
}

// obPtr is the atomic holder embedded in Controller (a named type so the
// struct field stays one line).
type obPtr = atomic.Pointer[ctlObs]

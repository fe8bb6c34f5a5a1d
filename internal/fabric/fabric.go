// Package fabric is the link-health supervisor for DP-DP authentication:
// a deterministic per-link state machine driven by data-plane evidence
// (feedback verification counters and key-version skew), with hold-down
// timers and exponential repair backoff to suppress flap storms.
//
// The package is deliberately pure: it holds no references to the
// controller, the switches, or the network. Everything it does to the
// world goes through the Hooks callbacks, and everything it knows about
// time comes from the injected clock — so a netsim-driven test replays
// bit-for-bit, and the same supervisor runs against any transport.
//
// State machine (transition causes in parentheses):
//
//	          bad-digest-threshold /
//	          feedback-silence
//	Healthy ───────────────────────▶ Suspect
//	   ▲                               │  │
//	   │ clean-windows                 │  │ bad-digest-persistent /
//	   └───────────────────────────────┘  │ feedback-silence
//	                                      ▼
//	          key-skew (from any state) ▶ Quarantined ◀──────────┐
//	                                      │                      │
//	                                      │ hold-down-expired    │ repair-failed /
//	                                      ▼                      │ repair-stale-epoch /
//	                                  Recovering ────────────────┘ probation-failed
//	                                      │
//	                                      │ probation-passed
//	                                      ▼
//	                                   Healthy
//
// Entering Quarantined blocks the link (routing excludes it; fail-closed
// for authentication) and draws a fresh repair epoch. After the hold-down
// the supervisor runs one epoch-fenced repair; success unblocks the link
// into Recovering, where it must survive a probation window of clean,
// flowing authenticated feedback before being trusted again. Any failure
// re-quarantines with deterministic exponential backoff.
package fabric

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"p4auth/internal/obs"
)

// State is a link's health classification.
type State uint8

const (
	// Healthy: feedback verifies, counters aligned; the link carries
	// probes and data.
	Healthy State = iota
	// Suspect: evidence of trouble (digest failures or silence) below the
	// quarantine threshold; still in service, watched closely.
	Suspect
	// Quarantined: the link is blocked out of routing and its port key is
	// scheduled for repair.
	Quarantined
	// Recovering: repaired and unblocked, serving probes on probation;
	// any relapse re-quarantines.
	Recovering
)

var stateNames = [...]string{"healthy", "suspect", "quarantined", "recovering"}

// String returns the stable lowercase name of the state.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Transition causes, audited verbatim (machine-matchable constants).
const (
	CauseBadDigests      = "bad-digest-threshold"
	CauseBadPersistent   = "bad-digest-persistent"
	CauseSilence         = "feedback-silence"
	CauseKeySkew         = "key-skew"
	CauseCleanWindows    = "clean-windows"
	CauseHoldDownExpired = "hold-down-expired"
	CauseRepairFailed    = "repair-failed"
	CauseRepairStale     = "repair-stale-epoch"
	CauseProbationPassed = "probation-passed"
	CauseProbationFailed = "probation-failed"
	CauseEvidenceLost    = "evidence-unavailable"
)

// ErrStaleRepair is what a Repair hook returns when its epoch was
// superseded — another repair generation (possibly on another controller)
// overtook this one. The supervisor treats it as a failed attempt but
// audits the distinct cause, because a stale fence is a liveness signal
// (someone else is repairing), not a fault.
var ErrStaleRepair = errors.New("fabric: repair epoch superseded")

// LinkID names a supervised link by its two ends, normalized so A sorts
// before B; both orientations of the same physical link compare equal
// after Normalize.
type LinkID struct {
	A  string
	PA int
	B  string
	PB int
}

// Normalize returns the ID with its lexicographically first end as A.
func (l LinkID) Normalize() LinkID {
	if l.B < l.A || (l.B == l.A && l.PB < l.PA) {
		return LinkID{A: l.B, PA: l.PB, B: l.A, PB: l.PA}
	}
	return l
}

// String renders "a:1<->b:2". Precomputed at Register so audit appends
// stay allocation-free.
func (l LinkID) String() string {
	return fmt.Sprintf("%s:%d<->%s:%d", l.A, l.PA, l.B, l.PB)
}

// Evidence is one link's cumulative data-plane testimony: monotone
// counters of verified and rejected feedback crossing the link (both
// directions summed), plus whether the two ends' key versions agree.
// The supervisor differences consecutive collections itself.
type Evidence struct {
	OKFeedback  uint64
	BadFeedback uint64
	KeySkew     bool
}

// Hooks are the supervisor's only effects on the world. All four must be
// set. They are invoked with the supervisor lock held, so a hook must not
// call back into the Supervisor (the wiring layers never need to).
type Hooks struct {
	// Collect returns the link's current cumulative evidence.
	Collect func(LinkID) (Evidence, error)
	// Block excludes the link from routing (fail-closed).
	Block func(LinkID) error
	// Unblock readmits the link to routing.
	Unblock func(LinkID) error
	// Repair re-establishes the link's port key under the given epoch;
	// return ErrStaleRepair (wrapped is fine) when the epoch was fenced.
	Repair func(LinkID, uint64) error
}

// Config bounds the state machine. All window counts are in Tick calls.
type Config struct {
	// SuspectBad is the per-window rejected-feedback count that moves a
	// Healthy link to Suspect.
	SuspectBad uint64
	// QuarantineStrikes is how many consecutive bad windows a Suspect
	// link survives before quarantine.
	QuarantineStrikes int
	// SilenceWindows quarantines a link after this many consecutive
	// windows with zero feedback either way (a dead or partitioned link
	// is silent, not noisy). <= 0 disables silence detection.
	SilenceWindows int
	// CleanWindows returns a Suspect link to Healthy after this many
	// consecutive windows with no rejections.
	CleanWindows int
	// ProbationWindows is how many consecutive clean AND flowing windows
	// (zero rejections, nonzero verified feedback) a Recovering link must
	// serve before it is Healthy again.
	ProbationWindows int
	// HoldDown is the wait between entering Quarantined and the first
	// repair attempt — the flap-storm damper.
	HoldDown time.Duration
	// RepairBackoff doubles after every failed repair, capped at
	// RepairBackoffMax.
	RepairBackoff    time.Duration
	RepairBackoffMax time.Duration
}

// DefaultConfig returns thresholds tuned for the netsim probe cadence:
// millisecond windows against the 200µs probe period, quarantine on the
// first strike, and a short hold-down so repair and probation cycles fit
// a degraded window.
func DefaultConfig() Config {
	return Config{
		SuspectBad:        1,
		QuarantineStrikes: 1,
		SilenceWindows:    3,
		CleanWindows:      2,
		ProbationWindows:  2,
		HoldDown:          2 * time.Millisecond,
		RepairBackoff:     1 * time.Millisecond,
		RepairBackoffMax:  4 * time.Millisecond,
	}
}

// LinkStatus is one link's externally visible record.
type LinkStatus struct {
	Link        LinkID
	State       State
	Since       time.Duration // virtual time of the last transition
	Cause       string        // cause of the last transition ("" before any)
	Epoch       uint64        // current repair epoch (0 before first quarantine)
	RepairFails int           // failed repair attempts in this quarantine spell
	OK, Bad     uint64        // cumulative evidence at last collection
}

// link is the per-link supervision record.
type link struct {
	id    LinkID
	label string // precomputed id.String() for alloc-free audits

	state State
	since time.Duration
	cause string

	lastOK, lastBad  uint64 // previous cumulative counters
	haveBase         bool   // first collection only establishes the baseline
	badStreak        int    // consecutive windows with rejections
	cleanStreak      int    // consecutive windows without rejections
	silentStreak     int    // consecutive windows with no feedback at all
	probationStreak  int    // consecutive clean+flowing windows in Recovering
	epoch            uint64 // current repair epoch (issued by the repair layer)
	repairFails      int
	nextRepairAt     time.Duration
	collectFailures  int
	lastCollectCause string
}

// Supervisor runs the link-health state machines. Tick-driven: the owner
// schedules Tick at its supervision period (typically on the netsim
// clock); the supervisor never sleeps or spawns goroutines.
type Supervisor struct {
	mu    sync.Mutex
	cfg   Config
	now   func() time.Duration
	hooks Hooks
	links []*link // registration order; deterministic iteration

	nextEpoch func(LinkID) (uint64, error) // optional external epoch source

	transitions *obs.Counter
	repairsOK   *obs.Counter
	repairsFail *obs.Counter
	repairStale *obs.Counter
	gauges      [4]*obs.Gauge // one per State
	audit       *obs.AuditLog
}

// New builds a supervisor. The clock must be monotone (a netsim.Sim's
// Now). The observer receives fabric.* metrics and EvLinkState audit
// events; it must not be nil.
func New(cfg Config, now func() time.Duration, hooks Hooks, o *obs.Observer) (*Supervisor, error) {
	if now == nil {
		return nil, errors.New("fabric: nil clock")
	}
	if hooks.Collect == nil || hooks.Block == nil || hooks.Unblock == nil || hooks.Repair == nil {
		return nil, errors.New("fabric: all four hooks must be set")
	}
	if o == nil {
		return nil, errors.New("fabric: nil observer")
	}
	s := &Supervisor{
		cfg:         cfg,
		now:         now,
		hooks:       hooks,
		transitions: o.Metrics.Counter("fabric.transitions"),
		repairsOK:   o.Metrics.Counter("fabric.repairs_ok"),
		repairsFail: o.Metrics.Counter("fabric.repairs_failed"),
		repairStale: o.Metrics.Counter("fabric.repairs_stale"),
		audit:       o.Audit,
	}
	for st := Healthy; st <= Recovering; st++ {
		s.gauges[st] = o.Metrics.Gauge("fabric.links_" + st.String())
	}
	return s, nil
}

// SetEpochSource installs an external repair-epoch issuer (the
// controller's per-link fence). Without one the supervisor numbers epochs
// itself, monotonically per link.
func (s *Supervisor) SetEpochSource(next func(LinkID) (uint64, error)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextEpoch = next
}

// Register adds a link (idempotent; the normalized ID is the identity).
// New links start Healthy.
func (s *Supervisor) Register(id LinkID) {
	id = id.Normalize()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, l := range s.links {
		if l.id == id {
			return
		}
	}
	s.links = append(s.links, &link{id: id, label: id.String(), since: s.now()})
	s.refreshGaugesLocked()
}

// Snapshot returns every link's status, sorted by link label.
func (s *Supervisor) Snapshot() []LinkStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]LinkStatus, len(s.links))
	for i, l := range s.links {
		out[i] = LinkStatus{
			Link:        l.id,
			State:       l.state,
			Since:       l.since,
			Cause:       l.cause,
			Epoch:       l.epoch,
			RepairFails: l.repairFails,
			OK:          l.lastOK,
			Bad:         l.lastBad,
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Link.String() < out[j].Link.String() })
	return out
}

// AllHealthy reports whether every supervised link is Healthy.
func (s *Supervisor) AllHealthy() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, l := range s.links {
		if l.state != Healthy {
			return false
		}
	}
	return true
}

// Tick runs one supervision window over every link: collect evidence,
// difference it against the last window, advance the state machine, and
// run any repair whose hold-down or backoff has expired. Deterministic:
// links are visited in registration order and all timing comes from the
// injected clock.
func (s *Supervisor) Tick() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, l := range s.links {
		s.tickLink(l)
	}
}

// tickLink advances one link by one window (s.mu held).
func (s *Supervisor) tickLink(l *link) {
	ev, err := s.hooks.Collect(l.id)
	if err != nil {
		// No evidence is itself evidence: an unreachable link end cannot
		// vouch for the link. Count it as a silent window.
		l.collectFailures++
		l.lastCollectCause = CauseEvidenceLost
		s.applyWindow(l, 0, 0, false, true)
		return
	}
	okDelta := counterDelta(l.lastOK, ev.OKFeedback)
	badDelta := counterDelta(l.lastBad, ev.BadFeedback)
	first := !l.haveBase
	l.lastOK, l.lastBad, l.haveBase = ev.OKFeedback, ev.BadFeedback, true
	if first {
		// The first collection only anchors the counters; deltas against
		// an unknown base would charge historical traffic to this window.
		okDelta, badDelta = 0, 0
		if !ev.KeySkew {
			return
		}
	}
	s.applyWindow(l, okDelta, badDelta, ev.KeySkew, false)
}

// counterDelta differences cumulative counters, tolerating resets (a
// rebooted switch restarts its registers at zero).
func counterDelta(last, cur uint64) uint64 {
	if cur < last {
		return cur
	}
	return cur - last
}

// applyWindow advances the state machine with one window's deltas.
func (s *Supervisor) applyWindow(l *link, okDelta, badDelta uint64, keySkew, collectFailed bool) {
	// Streak accounting, shared by every state.
	if badDelta > 0 {
		l.badStreak++
		l.cleanStreak = 0
	} else {
		l.badStreak = 0
		l.cleanStreak++
	}
	if okDelta == 0 && badDelta == 0 {
		l.silentStreak++
	} else {
		l.silentStreak = 0
	}

	// Key skew quarantines from any in-service state: the two ends no
	// longer share a key, so nothing the link carries can authenticate.
	if keySkew && l.state != Quarantined {
		s.quarantine(l, CauseKeySkew)
		return
	}

	switch l.state {
	case Healthy:
		switch {
		case s.cfg.SuspectBad > 0 && badDelta >= s.cfg.SuspectBad:
			s.transition(l, Suspect, CauseBadDigests)
		case s.cfg.SilenceWindows > 0 && l.silentStreak >= s.cfg.SilenceWindows:
			s.transition(l, Suspect, CauseSilence)
		}
	case Suspect:
		switch {
		case s.cfg.QuarantineStrikes > 0 && l.badStreak >= s.cfg.QuarantineStrikes:
			s.quarantine(l, CauseBadPersistent)
		case s.cfg.SilenceWindows > 0 && l.silentStreak >= 2*s.cfg.SilenceWindows:
			s.quarantine(l, CauseSilence)
		case l.cleanStreak >= s.cfg.CleanWindows && l.silentStreak == 0:
			s.transition(l, Healthy, CauseCleanWindows)
		}
	case Quarantined:
		if collectFailed || s.now() < l.nextRepairAt {
			return
		}
		s.transition(l, Recovering, CauseHoldDownExpired)
		s.attemptRepair(l)
	case Recovering:
		switch {
		case badDelta > 0:
			s.quarantine(l, CauseProbationFailed)
		case s.cfg.SilenceWindows > 0 && l.silentStreak >= 2*s.cfg.SilenceWindows:
			s.quarantine(l, CauseSilence)
		case okDelta > 0 && badDelta == 0:
			l.probationStreak++
			if l.probationStreak >= s.cfg.ProbationWindows {
				s.transition(l, Healthy, CauseProbationPassed)
			}
		}
	}
}

// quarantine blocks the link, draws a fresh repair epoch, and arms the
// hold-down timer (first spell) or the exponential backoff (relapse).
func (s *Supervisor) quarantine(l *link, cause string) {
	relapse := l.state == Recovering
	s.transition(l, Quarantined, cause)
	if err := s.hooks.Block(l.id); err != nil {
		// The block hook failing is not fatal to supervision: the link
		// stays quarantined and the next spell retries the block via
		// attemptRepair's failure path. Routing may briefly still use it.
		l.lastCollectCause = CauseEvidenceLost
	}
	epoch := l.epoch + 1
	if s.nextEpoch != nil {
		if e, err := s.nextEpoch(l.id); err == nil {
			epoch = e
		}
	}
	l.epoch = epoch
	wait := s.cfg.HoldDown
	if relapse || l.repairFails > 0 {
		wait = s.repairWait(l.repairFails)
	}
	l.nextRepairAt = s.now() + wait
	l.probationStreak = 0
}

// repairWait is the deterministic exponential backoff after n failures.
func (s *Supervisor) repairWait(n int) time.Duration {
	d := s.cfg.RepairBackoff
	if d <= 0 {
		d = s.cfg.HoldDown
	}
	for i := 0; i < n; i++ {
		if s.cfg.RepairBackoffMax > 0 && d >= s.cfg.RepairBackoffMax {
			return s.cfg.RepairBackoffMax
		}
		d *= 2
	}
	if s.cfg.RepairBackoffMax > 0 && d > s.cfg.RepairBackoffMax {
		d = s.cfg.RepairBackoffMax
	}
	return d
}

// attemptRepair runs one epoch-fenced repair for a link that just left
// hold-down. Success unblocks the link into probation; failure returns it
// to Quarantined with backoff.
func (s *Supervisor) attemptRepair(l *link) {
	err := s.hooks.Repair(l.id, l.epoch)
	if err == nil {
		s.repairsOK.Inc()
		l.repairFails = 0
		if uerr := s.hooks.Unblock(l.id); uerr != nil {
			// Repaired but still blocked: treat as a failed attempt so the
			// next spell retries the unblock.
			s.repairsFail.Inc()
			wait := s.repairWait(l.repairFails)
			l.repairFails++
			s.transition(l, Quarantined, CauseRepairFailed)
			l.nextRepairAt = s.now() + wait
			return
		}
		l.probationStreak = 0
		l.silentStreak = 0
		return
	}
	cause := CauseRepairFailed
	if errors.Is(err, ErrStaleRepair) {
		cause = CauseRepairStale
		s.repairStale.Inc()
	} else {
		s.repairsFail.Inc()
	}
	// The wait for attempt n+1 is base<<n: the first retry waits exactly
	// RepairBackoff, each further failure doubles it up to the cap.
	wait := s.repairWait(l.repairFails)
	l.repairFails++
	s.transition(l, Quarantined, cause)
	l.nextRepairAt = s.now() + wait
}

// transition moves a link between states, audits the move, and refreshes
// the state gauges. Every state change in the supervisor funnels through
// here — the audit log is complete by construction.
func (s *Supervisor) transition(l *link, to State, cause string) {
	from := l.state
	l.state = to
	l.since = s.now()
	l.cause = cause
	if to != Suspect {
		l.badStreak = 0
	}
	if to == Healthy {
		l.repairFails = 0
	}
	s.transitions.Inc()
	s.audit.Append(obs.EvLinkState, l.label, cause, uint32(l.epoch), uint64(from)<<8|uint64(to))
	s.refreshGaugesLocked()
}

// refreshGaugesLocked recounts the per-state link gauges.
func (s *Supervisor) refreshGaugesLocked() {
	var counts [4]uint64
	for _, l := range s.links {
		counts[l.state]++
	}
	for st, g := range s.gauges {
		if g != nil {
			g.Set(counts[st])
		}
	}
}

// TransitionPair unpacks an EvLinkState audit value into (from, to).
func TransitionPair(value uint64) (from, to State) {
	return State(value >> 8 & 0xff), State(value & 0xff)
}

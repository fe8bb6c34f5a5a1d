package obs

// Bounded ring-buffer audit log of structured security events. Append
// copies a fixed-size Event into a ring slot under a mutex, with no
// formatting. The ring grows with use, doubling up to its capacity, so a
// log that records little holds little; once it is full, Append never
// allocates. String fields must be constants or strings that already
// exist (switch names, cause labels) — never built with fmt on the hot
// path. When the full ring wraps, the oldest events are overwritten and
// counted as evicted, so readers can tell a complete log from a truncated
// one.

import (
	"fmt"
	"strings"
	"sync"
)

// EventType classifies a security event.
type EventType uint8

const (
	// EvDigestMismatch: a response or request failed digest verification.
	EvDigestMismatch EventType = iota + 1
	// EvReplayRejected: a message was rejected by the replay floor.
	EvReplayRejected
	// EvFloorBump: the controller advanced a replay floor (SkipAhead /
	// FloorLease) — every bump must name its cause.
	EvFloorBump
	// EvRolloverBegin: a key rollover started.
	EvRolloverBegin
	// EvRolloverCommit: a key rollover committed on both sides.
	EvRolloverCommit
	// EvRolloverRollback: a key rollover was aborted and rolled back.
	EvRolloverRollback
	// EvEAKFallback: recovery fell back to seed-derived (EAK) keying.
	EvEAKFallback
	// EvQuarantineEnter: a switch crossed the failure threshold.
	EvQuarantineEnter
	// EvQuarantineLeave: a quarantined switch was readmitted.
	EvQuarantineLeave
	// EvWALSettle: a journaled register write settled (applied, failed, or
	// redriven); Cause carries the outcome.
	EvWALSettle
	// EvWriteDropped: an authenticated write was abandoned after
	// exhausting retries; Cause names the final error class.
	EvWriteDropped
	// EvLinkState: a fabric link-health state machine transitioned; Actor
	// is the link label, Cause the evidence class, Seq the repair epoch,
	// and Value packs (from<<8 | to) of the state pair.
	EvLinkState
	// EvFailover: a standby replica acquired the controller lease; Actor
	// is the new active, Cause the trigger class, and Value the fencing
	// epoch of the new grant.
	EvFailover
	// EvFencedWrite: a replica's signed send was refused by the lease
	// fence (deposed, superseded, or never the holder); Actor is the
	// refused replica and Value the epoch it held.
	EvFencedWrite
	// EvDegraded: a replica's bounded-staleness fence transitioned — the
	// store became unreadable and the cached grant started admitting
	// (enter), the store came back (exit), or the grace ran out and the
	// replica fenced itself (exhausted). Actor is the replica, Cause the
	// transition, Value the held epoch.
	EvDegraded
	// EvElection: a controller group elected a new active. Actor is the
	// winner, Cause the trigger, Seq the number of candidates that died
	// mid-promotion before the winner (chained succession depth), Value
	// the winning epoch.
	EvElection
	// EvBrokerGrant: the global broker tier issued a fenced cross-pod
	// key grant. Actor is the serving global replica, Cause the link,
	// Seq the requesting pod, Value the fencing epoch the grant is
	// valid under.
	EvBrokerGrant
	// EvWANDegraded: a pod tier's WAN path to the global broker
	// transitioned — broker RPCs started failing (enter), service
	// resumed (exit), or a cross-pod rollover was deferred while
	// degraded (defer). Actor is the pod, Value the deferred-rollover
	// backlog after the transition.
	EvWANDegraded
)

var eventNames = map[EventType]string{
	EvDigestMismatch:   "digest_mismatch",
	EvReplayRejected:   "replay_rejected",
	EvFloorBump:        "floor_bump",
	EvRolloverBegin:    "rollover_begin",
	EvRolloverCommit:   "rollover_commit",
	EvRolloverRollback: "rollover_rollback",
	EvEAKFallback:      "eak_fallback",
	EvQuarantineEnter:  "quarantine_enter",
	EvQuarantineLeave:  "quarantine_leave",
	EvWALSettle:        "wal_settle",
	EvWriteDropped:     "write_dropped",
	EvLinkState:        "link_state",
	EvFailover:         "failover",
	EvFencedWrite:      "fenced_write",
	EvDegraded:         "degraded_fence",
	EvElection:         "election",
	EvBrokerGrant:      "broker_grant",
	EvWANDegraded:      "wan_degraded",
}

// String returns the stable snake_case name of the event type.
func (t EventType) String() string {
	if n, ok := eventNames[t]; ok {
		return n
	}
	return "unknown"
}

// Event is one audit record. All fields are fixed-size; Actor and Cause
// are string headers pointing at pre-existing constants.
type Event struct {
	ID    uint64    `json:"id"`    // monotone sequence number, 1-based
	Type  EventType `json:"type"`  // what happened
	Actor string    `json:"actor"` // which switch / component
	Cause string    `json:"cause"` // why (constant label; "" only where N/A)
	Seq   uint32    `json:"seq"`   // protocol sequence number, when known
	Value uint64    `json:"value"` // type-specific payload (floor, version…)
}

// DefaultAuditCap is the ring capacity used when none is given.
const DefaultAuditCap = 4096

// firstRing is the ring length an audit log's first event allocates.
const firstRing = 16

// AuditLog is a bounded ring of events.
type AuditLog struct {
	mu sync.Mutex
	// ring holds events in append order until it first fills; it doubles
	// then, up to capacity, and wraps once it is that long.
	ring     []Event
	capacity int
	next     uint64 // total events ever appended
	evicted  uint64 // events overwritten by ring wrap
}

// NewAuditLog returns a ring holding the last n events (DefaultAuditCap
// when n <= 0). It allocates nothing until the first event.
func NewAuditLog(n int) *AuditLog {
	if n <= 0 {
		n = DefaultAuditCap
	}
	return &AuditLog{capacity: n}
}

// Append records an event, copying it into a ring slot. It allocates
// only when the ring doubles, never once the ring has reached capacity.
// Safe for concurrent use.
func (l *AuditLog) Append(t EventType, actor, cause string, seq uint32, value uint64) {
	l.mu.Lock()
	if n := len(l.ring); l.next == uint64(n) && n < l.capacity {
		ring := make([]Event, min(max(2*n, firstRing), l.capacity))
		copy(ring, l.ring)
		l.ring = ring
	}
	slot := &l.ring[l.next%uint64(len(l.ring))]
	if l.next >= uint64(len(l.ring)) {
		l.evicted++
	}
	l.next++
	slot.ID = l.next
	slot.Type = t
	slot.Actor = actor
	slot.Cause = cause
	slot.Seq = seq
	slot.Value = value
	l.mu.Unlock()
}

// Len returns the number of events currently retained.
func (l *AuditLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.next < uint64(len(l.ring)) {
		return int(l.next)
	}
	return len(l.ring)
}

// Total returns the number of events ever appended.
func (l *AuditLog) Total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Evicted returns how many events were lost to ring wrap.
func (l *AuditLog) Evicted() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.evicted
}

// Events returns the retained events oldest-first. Cold path.
func (l *AuditLog) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.ring)
	if l.next <= uint64(n) {
		out := make([]Event, l.next)
		copy(out, l.ring[:l.next])
		return out
	}
	out := make([]Event, 0, n)
	start := l.next % uint64(n)
	out = append(out, l.ring[start:]...)
	out = append(out, l.ring[:start]...)
	return out
}

// ByType returns retained events of one type, oldest-first.
func (l *AuditLog) ByType(t EventType) []Event {
	all := l.Events()
	out := all[:0]
	for _, e := range all {
		if e.Type == t {
			out = append(out, e)
		}
	}
	return out
}

// Dump renders the retained events as one line each, oldest-first.
func (l *AuditLog) Dump() string {
	var b strings.Builder
	if ev := l.Evicted(); ev > 0 {
		fmt.Fprintf(&b, "… %d earlier events evicted\n", ev)
	}
	for _, e := range l.Events() {
		fmt.Fprintf(&b, "#%-6d %-18s actor=%-8s seq=%-10d value=%-12d cause=%s\n",
			e.ID, e.Type, e.Actor, e.Seq, e.Value, e.Cause)
	}
	return b.String()
}

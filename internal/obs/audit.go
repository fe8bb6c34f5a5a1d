package obs

// Bounded ring-buffer audit log of structured security events. Append
// stores an event in a 24-byte ring slot under a mutex, with no
// formatting. A slot holds no pointers: the event's ID follows from its
// position in append order, and its actor and cause are indexes into the
// log's name table, which keeps each distinct name once. So a full ring of
// DefaultAuditCap events is 96 KiB the collector never scans. The ring
// grows with use, doubling up to its capacity, so a log that records
// little holds little. Once it is full, Append allocates only for a name
// the log has not seen. Actor and cause must therefore come from a bounded
// set: constants, or names that already exist (switches, replicas, pods,
// links) — never built with fmt on the hot path. When the full ring
// wraps, the oldest events are overwritten and counted as evicted, so
// readers can tell a complete log from a truncated one.

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

// Event is one audit record as the log's readers see it.
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

// slot is an Event as the ring stores it, without its ID and with its
// actor and cause as name-table indexes.
type slot struct {
	value        uint64
	seq          uint32
	actor, cause uint32
	typ          EventType
}

// AuditLog is a bounded ring of events.
type AuditLog struct {
	mu sync.Mutex
	// ring holds events in append order until it first fills; it doubles
	// then, up to capacity, and wraps once it is that long. Event i
	// (0-based, ID i+1) is always in ring[i%len(ring)].
	ring     []slot
	capacity int
	next     uint64 // total events ever appended
	// names holds every actor and cause the log has seen, once each, and
	// index maps each back to its position; names[0] is "".
	names []string
	index map[string]uint32
}

// NewAuditLog returns a ring holding the last n events (DefaultAuditCap
// when n <= 0). It allocates nothing until the first event.
func NewAuditLog(n int) *AuditLog {
	if n <= 0 {
		n = DefaultAuditCap
	}
	return &AuditLog{capacity: n}
}

// Append records an event in a ring slot. It allocates only when the
// ring doubles or on an actor or cause the log has not seen before.
// Safe for concurrent use.
func (l *AuditLog) Append(t EventType, actor, cause string, seq uint32, value uint64) {
	l.mu.Lock()
	if n := len(l.ring); l.next == uint64(n) && n < l.capacity {
		if n == 0 {
			l.names, l.index = []string{""}, map[string]uint32{"": 0}
		}
		ring := make([]slot, min(max(2*n, firstRing), l.capacity))
		copy(ring, l.ring)
		l.ring = ring
	}
	l.ring[l.next%uint64(len(l.ring))] = slot{value: value, seq: seq, actor: l.intern(actor), cause: l.intern(cause), typ: t}
	l.next++
	l.mu.Unlock()
}

// intern returns name's index in the name table, adding it on first
// sight. Called with l.mu held.
func (l *AuditLog) intern(name string) uint32 {
	if i, ok := l.index[name]; ok {
		return i
	}
	i := uint32(len(l.names))
	l.names = append(l.names, name)
	l.index[name] = i
	return i
}

// retained returns how many events the ring holds. Called with l.mu held.
func (l *AuditLog) retained() uint64 { return min(l.next, uint64(len(l.ring))) }

// Len returns the number of events currently retained.
func (l *AuditLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int(l.retained())
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
	return l.next - l.retained()
}

// Events returns the retained events oldest-first. Cold path.
func (l *AuditLog) Events() []Event {
	events, _ := l.snapshot()
	return events
}

// snapshot returns the retained events oldest-first and the eviction
// count, both read under one hold of the lock.
func (l *AuditLog) snapshot() ([]Event, uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	evicted := l.next - l.retained()
	out := make([]Event, 0, l.next-evicted)
	for i := evicted; i < l.next; i++ {
		s := &l.ring[i%uint64(len(l.ring))]
		out = append(out, Event{ID: i + 1, Type: s.typ, Actor: l.names[s.actor], Cause: l.names[s.cause], Seq: s.seq, Value: s.value})
	}
	return out, evicted
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

// Dump renders the retained events as one line each, oldest-first,
// under a header counting the evicted ones; both describe one instant.
func (l *AuditLog) Dump() string {
	events, evicted := l.snapshot()
	var b strings.Builder
	if evicted > 0 {
		fmt.Fprintf(&b, "… %d earlier events evicted\n", evicted)
	}
	for _, e := range events {
		fmt.Fprintf(&b, "#%-6d %-18s actor=%-8s seq=%-10d value=%-12d cause=%s\n",
			e.ID, e.Type, e.Actor, e.Seq, e.Value, e.Cause)
	}
	return b.String()
}

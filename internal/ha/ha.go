// Package ha layers active/standby controller replication on top of the
// sharded control plane: a lease state machine over the shared
// statestore, the fencing rule that makes a deposed active harmless, and
// the failover orchestration that warm-restarts a standby into the
// active role mid-rollover without reopening a replay window.
//
// The design is a single CRC-armoured lease record (statestore.Lease,
// the PALS codec) updated only by compare-and-swap:
//
//   - Acquire increments the fencing epoch; Renew extends the window at
//     the SAME epoch. The epoch therefore identifies one unbroken tenure.
//   - Every signed wire send and every durable persist of a replica
//     re-reads the record and refuses unless it still names this replica
//     at its acquired epoch, unexpired. A deposed active — even one that
//     is alive, with signed batches in flight — fails this check before
//     any bytes reach the wire or the store. Refusal is a property of
//     the record, never of luck or timing.
//   - The standby tails the active's snapshots and WAL through the same
//     store (statestore.Tailer), so promotion is a warm restart over
//     state it already holds: restored replay floors are lease-bumped
//     (core.FloorLease) exactly as a single-controller crash restart,
//     and the old floors stay monotone.
//
// This mirrors the {latest,committed} repair-epoch fence of the DP-DP
// fabric layer (controller/fabric.go) one level up: admit-or-refuse
// before any message is sent, re-checked on every leg.
package ha

import (
	"errors"
	"fmt"
	"time"

	"p4auth/internal/controller"
)

// Clock provides the time base for grant and expiry decisions.
// netsim.Sim satisfies it, so deterministic simulations drive leases
// from virtual time.
type Clock interface {
	Now() time.Duration
}

// ErrNotActive wraps controller.ErrFenced: the replica does not hold the
// lease at its epoch, so sends and persists are refused.
var ErrNotActive = fmt.Errorf("ha: replica is not the active holder: %w", controller.ErrFenced)

// ErrLeaseHeld is returned by Acquire while another replica's lease is
// valid and unexpired.
var ErrLeaseHeld = errors.New("ha: lease held by another replica")

// ErrLeaseRaced is returned when a compare-and-swap lost against a
// concurrent grant; the caller may re-read and retry.
var ErrLeaseRaced = errors.New("ha: lost lease race")

// ErrDeposed is returned by Renew when the stored record no longer names
// this replica at its epoch — another replica acquired in between.
var ErrDeposed = errors.New("ha: replica was deposed")

// ErrEpochExhausted is returned by Acquire when the stored fencing epoch
// is already at its maximum: incrementing would wrap to 0 and alias a
// fresh tenure with "never held", so the group refuses instead of
// saturating (two tenures must never share an epoch).
var ErrEpochExhausted = errors.New("ha: fencing epoch exhausted")

// ErrNoCandidates is returned by Group.Elect when every ranked replica
// is dead or failed its promotion attempt.
var ErrNoCandidates = errors.New("ha: no electable replica in the group")

// DegradedEvent classifies one bounded-staleness fencing transition or
// admission, observed via LeaseManager.SetDegradedObserver.
type DegradedEvent string

const (
	// DegradedEnter: the store became unreadable and the cached grant
	// started admitting.
	DegradedEnter DegradedEvent = "degraded-enter"
	// DegradedAdmit: one fence check admitted on cached evidence.
	DegradedAdmit DegradedEvent = "degraded-admit"
	// DegradedExit: a store round trip succeeded again; the episode
	// ended with the fence still healthy.
	DegradedExit DegradedEvent = "degraded-exit"
	// DegradedExhausted: the episode ended in refusal — grace ran out or
	// the cached grant neared expiry with the store still dark.
	DegradedExhausted DegradedEvent = "degraded-exhausted"
)

// Fencing refusal cause labels (audit constants; see obs.EvFencedWrite).
const (
	// CauseNeverActive: the replica never acquired a lease.
	CauseNeverActive = "never-active"
	// CauseDeposed: another replica holds a higher-epoch grant.
	CauseDeposed = "deposed"
	// CauseLeaseExpired: the replica's own grant lapsed without renewal.
	CauseLeaseExpired = "lease-expired"
	// CauseLeaseUnreadable: the stored record is missing or corrupt.
	CauseLeaseUnreadable = "lease-unreadable"
	// CauseStoreUnavailable: the store itself is unreadable (I/O error,
	// not an absent record) and no admissible cached grant exists.
	CauseStoreUnavailable = "store-unavailable"
	// CauseGraceExhausted: the store stayed unreadable past the bounded-
	// staleness grace window; the replica fenced itself fail-safe.
	CauseGraceExhausted = "degraded-grace-exhausted"
	// Failover trigger labels (obs.EvFailover causes).
	CauseBootstrap = "bootstrap"
	CausePromoted  = "standby-promoted"
	CauseElected   = "group-elected"
)

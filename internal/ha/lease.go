package ha

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"p4auth/internal/statestore"
)

// LeaseManager is one replica's view of the controller-ownership lease.
// All mutations go through the store's compare-and-swap, so two managers
// racing over the same store serialize on the record itself — there is
// no other coordination channel, which is the point: whatever survives
// in the record IS the truth.
type LeaseManager struct {
	st    statestore.LeaseStore
	clock Clock
	name  string
	ttl   time.Duration
	// grace is the bounded-staleness window: with the store unreadable,
	// a cached grant keeps admitting for at most this long past the last
	// successful read. Zero means strict fencing (any store error
	// refuses). skew is the assumed worst-case clock divergence between
	// replicas; grace + skew < ttl is enforced at configuration.
	grace time.Duration
	skew  time.Duration
	// onDegraded observes degraded-mode transitions and admissions (set
	// once at wiring time, before concurrent use).
	onDegraded func(ev DegradedEvent, detail string)

	mu sync.Mutex
	// held is the last grant this replica obtained (Holder == name);
	// nil before the first Acquire and after a detected deposition.
	held *statestore.Lease
	// cached is the record seen at the last successful store round trip
	// (read or CAS), with its clock time: the evidence degraded-mode
	// admission runs on while the store is unreadable.
	cached     *statestore.Lease
	cachedAtNs uint64
	cacheValid bool
	degraded   bool
}

// NewLeaseManager returns a manager for the named replica. The name
// must fit the PALS codec's 16-bit holder length — validated here so
// Encode's refusal is unreachable from this writer.
func NewLeaseManager(st statestore.LeaseStore, clock Clock, name string, ttl time.Duration) (*LeaseManager, error) {
	if st == nil {
		return nil, fmt.Errorf("ha: replica needs a store")
	}
	if name == "" {
		return nil, fmt.Errorf("ha: replica needs a name")
	}
	if len(name) > statestore.MaxLeaseHolderLen {
		return nil, fmt.Errorf("ha: replica name is %d bytes, max %d (PALS holder field)",
			len(name), statestore.MaxLeaseHolderLen)
	}
	if ttl <= 0 {
		return nil, fmt.Errorf("ha: lease TTL must be positive")
	}
	return &LeaseManager{st: st, clock: clock, name: name, ttl: ttl}, nil
}

// ConfigureStaleness enables bounded-staleness fencing: while the store
// is unreadable, the last successfully read grant keeps admitting for
// up to grace past its read time, but never within skew of the grant's
// own expiry. The non-overlap argument requires grace + skew strictly
// less than the TTL (see PROTOCOL.md); configurations outside it are
// refused. grace == 0 restores strict fencing.
func (m *LeaseManager) ConfigureStaleness(grace, skew time.Duration) error {
	if grace < 0 || skew < 0 {
		return fmt.Errorf("ha: negative staleness bound (grace %v, skew %v)", grace, skew)
	}
	if grace > 0 && grace+skew >= m.ttl {
		return fmt.Errorf("ha: grace %v + skew %v must be strictly less than TTL %v", grace, skew, m.ttl)
	}
	m.mu.Lock()
	m.grace, m.skew = grace, skew
	m.mu.Unlock()
	return nil
}

// SetDegradedObserver installs the degraded-mode observer (metrics and
// audit wiring). Install before concurrent use.
func (m *LeaseManager) SetDegradedObserver(fn func(ev DegradedEvent, detail string)) {
	m.mu.Lock()
	m.onDegraded = fn
	m.mu.Unlock()
}

// Name returns the replica name the manager grants to.
func (m *LeaseManager) Name() string { return m.name }

// readRecord loads the current record. It returns the raw bytes for the
// CAS precondition and the decoded lease (nil when absent or corrupt —
// a corrupt record reads as "no lease" but its bytes still gate the
// swap, so two replicas cannot both claim over the same garbage).
func (m *LeaseManager) readRecord() ([]byte, *statestore.Lease, error) {
	raw, err := m.st.Load(statestore.LeaseKey)
	if errors.Is(err, statestore.ErrNotFound) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, err
	}
	l, derr := statestore.DecodeLease(raw)
	if derr != nil {
		return raw, nil, nil
	}
	return raw, l, nil
}

// Acquire claims the lease, incrementing the fencing epoch. It refuses
// with ErrLeaseHeld while another replica's grant is unexpired, with
// ErrLeaseRaced when the swap lost a concurrent update, and with
// ErrEpochExhausted when the stored epoch cannot be incremented without
// wrapping — a wrapped epoch would let a new tenure alias epoch 0 and
// break the fence's monotonicity.
func (m *LeaseManager) Acquire() (*statestore.Lease, error) {
	now := uint64(m.clock.Now())
	raw, cur, err := m.readRecord()
	if err != nil {
		return nil, err
	}
	var epoch uint64 = 1
	if cur != nil {
		if cur.Holder != m.name && now < cur.ExpiresNs() {
			return nil, fmt.Errorf("%w (holder %s epoch %d until %dns)",
				ErrLeaseHeld, cur.Holder, cur.Epoch, cur.ExpiresNs())
		}
		if cur.Epoch == ^uint64(0) {
			return nil, fmt.Errorf("%w (stored epoch %d)", ErrEpochExhausted, cur.Epoch)
		}
		epoch = cur.Epoch + 1
	}
	next := &statestore.Lease{Holder: m.name, Epoch: epoch, GrantedNs: now, TTLNs: uint64(m.ttl)}
	ok, err := m.st.CompareAndSwap(statestore.LeaseKey, raw, next.Encode())
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, ErrLeaseRaced
	}
	m.mu.Lock()
	m.held = next
	m.mu.Unlock()
	m.noteHealthy(next, now)
	return next, nil
}

// Renew extends the validity window of the current tenure at the same
// epoch. ErrDeposed means another replica acquired in between; the
// caller must stop driving switches (its fence already refuses).
func (m *LeaseManager) Renew() (*statestore.Lease, error) {
	m.mu.Lock()
	held := m.held
	m.mu.Unlock()
	if held == nil {
		return nil, ErrNotActive
	}
	raw, cur, err := m.readRecord()
	if err != nil {
		return nil, err
	}
	if cur == nil || cur.Holder != m.name || cur.Epoch != held.Epoch {
		m.mu.Lock()
		m.held = nil
		m.mu.Unlock()
		return nil, ErrDeposed
	}
	now := uint64(m.clock.Now())
	next := &statestore.Lease{Holder: m.name, Epoch: cur.Epoch, GrantedNs: now, TTLNs: uint64(m.ttl)}
	ok, err := m.st.CompareAndSwap(statestore.LeaseKey, raw, next.Encode())
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, ErrLeaseRaced
	}
	m.mu.Lock()
	m.held = next
	m.mu.Unlock()
	m.noteHealthy(next, now)
	return next, nil
}

// HeldEpoch returns the epoch of the replica's current tenure (0 when
// not active).
func (m *LeaseManager) HeldEpoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.held == nil {
		return 0
	}
	return m.held.Epoch
}

// FenceError is a classified fencing refusal. It unwraps to ErrNotActive
// (and through it to controller.ErrFenced), so transport-level callers
// see one error class while the audit trail keeps the precise cause.
type FenceError struct {
	// Cause is one of the Cause* fencing labels.
	Cause string
	// Detail is the human-readable specifics.
	Detail string
}

func (e *FenceError) Error() string {
	if e.Detail == "" {
		return fmt.Sprintf("%v: %s", ErrNotActive, e.Cause)
	}
	return fmt.Sprintf("%v: %s (%s)", ErrNotActive, e.Cause, e.Detail)
}

// Unwrap chains into ErrNotActive -> controller.ErrFenced.
func (e *FenceError) Unwrap() error { return ErrNotActive }

// FenceCause maps a fencing error to its audit cause label.
func FenceCause(err error) string {
	var fe *FenceError
	if errors.As(err, &fe) {
		return fe.Cause
	}
	if err != nil {
		return CauseNeverActive
	}
	return ""
}

// Fence is the admit-or-refuse check run before every signed send and
// every durable persist: the STORED record must still name this replica
// at its acquired epoch, unexpired. Consulting the store (not the cached
// grant) is what catches supersession — a deposed-but-alive active reads
// the usurper's record and refuses itself.
//
// When the store itself is unreadable (a real I/O error, not an absent
// or corrupt record), strict refusal would let a one-poll store blip
// fence a perfectly healthy active. With ConfigureStaleness enabled,
// the manager instead honors the grant seen at the last successful
// round trip, bounded two ways: no longer than grace past that read,
// and never within skew of the cached grant's own expiry. Both bounds
// keep degraded admission strictly inside the tenure window no
// successor can enter (see the non-overlap sketch in PROTOCOL.md), so
// the blip is survivable yet can never produce two writers. Once the
// grace is exhausted the replica fences itself — fail-safe, never
// fail-open. The returned error wraps controller.ErrFenced via
// ErrNotActive.
func (m *LeaseManager) Fence() error {
	m.mu.Lock()
	held := m.held
	m.mu.Unlock()
	if held == nil {
		return &FenceError{Cause: CauseNeverActive}
	}
	now := uint64(m.clock.Now())
	_, cur, err := m.readRecord()
	if err != nil {
		return m.fenceDegraded(held, now, err)
	}
	m.noteHealthy(cur, now)
	if cur == nil {
		return &FenceError{Cause: CauseLeaseUnreadable}
	}
	if cur.Holder != m.name || cur.Epoch != held.Epoch {
		return &FenceError{Cause: CauseDeposed,
			Detail: fmt.Sprintf("holder %s epoch %d, ours %d", cur.Holder, cur.Epoch, held.Epoch)}
	}
	if now >= cur.ExpiresNs() {
		return &FenceError{Cause: CauseLeaseExpired,
			Detail: fmt.Sprintf("at %dns, expired %dns", now, cur.ExpiresNs())}
	}
	return nil
}

// noteHealthy records a successful store round trip (read or CAS): the
// observed record becomes the degraded-mode evidence, and any degraded
// episode ends.
func (m *LeaseManager) noteHealthy(cur *statestore.Lease, now uint64) {
	m.mu.Lock()
	m.cached = cur
	m.cachedAtNs = now
	m.cacheValid = cur != nil
	exited := m.degraded
	m.degraded = false
	cb := m.onDegraded
	m.mu.Unlock()
	if exited && cb != nil {
		cb(DegradedExit, "store readable again")
	}
}

// fenceDegraded is the store-unreadable admission path. It admits only
// on cached evidence that (a) names this replica at its held epoch,
// (b) is younger than the grace window, and (c) is not within skew of
// its own expiry. Anything else refuses — a store outage can silence an
// active, never mint one.
func (m *LeaseManager) fenceDegraded(held *statestore.Lease, now uint64, rerr error) error {
	m.mu.Lock()
	cached, at, valid := m.cached, m.cachedAtNs, m.cacheValid
	grace, skew := m.grace, m.skew
	wasDegraded := m.degraded

	var ferr *FenceError
	switch {
	case grace <= 0:
		ferr = &FenceError{Cause: CauseStoreUnavailable, Detail: rerr.Error()}
	case !valid || cached == nil || cached.Holder != m.name || cached.Epoch != held.Epoch:
		ferr = &FenceError{Cause: CauseStoreUnavailable,
			Detail: "no admissible cached grant: " + rerr.Error()}
	case now < at:
		// The clock ran backwards relative to the cache; evidence age is
		// meaningless, so fail safe.
		ferr = &FenceError{Cause: CauseStoreUnavailable, Detail: "cached grant from the future"}
	case now-at > uint64(grace):
		ferr = &FenceError{Cause: CauseGraceExhausted,
			Detail: fmt.Sprintf("store unreadable for %dns, grace %dns: %v", now-at, grace, rerr)}
	case now+uint64(skew) >= cached.ExpiresNs():
		ferr = &FenceError{Cause: CauseLeaseExpired,
			Detail: fmt.Sprintf("degraded at %dns, within skew %dns of expiry %dns", now, skew, cached.ExpiresNs())}
	}
	if ferr != nil {
		m.degraded = false
		cb := m.onDegraded
		m.mu.Unlock()
		if wasDegraded && cb != nil {
			cb(DegradedExhausted, ferr.Cause)
		}
		return ferr
	}
	m.degraded = true
	cb := m.onDegraded
	m.mu.Unlock()
	if cb != nil {
		if !wasDegraded {
			cb(DegradedEnter, rerr.Error())
		}
		cb(DegradedAdmit, "")
	}
	return nil
}

// InDegraded reports whether the manager is currently admitting on
// cached evidence (the store was unreadable at the last fence check).
func (m *LeaseManager) InDegraded() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.degraded
}

// CurrentLease reads the stored record: the decoded lease (nil when
// absent or corrupt) or the store's I/O error. Election logic uses it
// to distinguish a live holder from a dead one's unexpired grant.
func (m *LeaseManager) CurrentLease() (*statestore.Lease, error) {
	_, cur, err := m.readRecord()
	return cur, err
}

package statestore

// FaultStore: the seeded fault-injection wrapper that makes the store a
// first-class fault domain. Every other fault surface in the repo (link
// taps, crash schedules, partitions) already injects deterministically
// from a seed; the statestore was the one silent single point of failure
// no harness could shake. FaultStore wraps any LeaseStore and injects,
// per operation:
//
//   - unavailability windows scheduled in virtual time (ErrUnavailable);
//   - transient I/O errors, either probabilistic (seeded) or forced for
//     the next N operations (FailNext);
//   - torn reads: Load returns deterministic garbage bytes instead of
//     the stored value (the CRC-armoured codecs must reject them);
//   - forced CAS lost races: CompareAndSwap reports false without
//     touching the record (LoseNextCAS) — the only way to exercise the
//     lost-race paths of sequential, single-threaded chaos schedules;
//   - virtual-clock latency charged against an advancing clock.
//
// A pre-operation Hook lets tests interleave work *inside* an operation
// (e.g. a concurrent Acquire between a Renew's read and its CAS), which
// is how single-threaded deterministic harnesses model true races.
//
// All randomness comes from one xorshift stream seeded at construction:
// equal seeds and equal operation sequences produce equal fault
// schedules, so chaos traces stay bit-identical per seed.

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrUnavailable is the injected (or real) backend-outage error: the
// store exists but cannot currently serve. Distinct from ErrNotFound —
// a caller must never treat an outage as an absent key.
var ErrUnavailable = errors.New("statestore: backend unavailable")

// FaultClock is the minimal clock FaultStore schedules outages and
// charges latency against. netsim.Sim satisfies it.
type FaultClock interface {
	Now() time.Duration
}

// FaultAdvancer is the optional extension used to charge per-operation
// latency by advancing virtual time. netsim.Sim satisfies it.
type FaultAdvancer interface {
	Advance(d time.Duration)
}

// Op names one store operation class for hooks and stats.
type Op string

// Operation classes observed by Hook and counted in FaultStats.
const (
	OpSave   Op = "save"
	OpLoad   Op = "load"
	OpDelete Op = "delete"
	OpKeys   Op = "keys"
	OpCAS    Op = "cas"
)

// FaultConfig parameterizes the probabilistic part of the injection.
// All probabilities are in [0,1] and drawn from the seeded stream in a
// fixed per-operation order, so equal configs replay identically.
type FaultConfig struct {
	// Seed drives every probabilistic choice and the torn-read garbage.
	Seed uint64
	// ErrProb is the per-operation transient I/O error probability.
	ErrProb float64
	// TornReadProb is the per-Load probability of returning garbage
	// bytes instead of the stored value.
	TornReadProb float64
	// CASLoseProb is the per-CompareAndSwap probability of reporting a
	// lost race without touching the record.
	CASLoseProb float64
	// Latency, when non-zero and the clock supports Advance, is charged
	// against virtual time on every operation.
	Latency time.Duration
}

// FaultStats counts what the wrapper actually injected and passed.
type FaultStats struct {
	// Ops counts operations that reached the wrapper, per class.
	Ops map[Op]int
	// Outages counts operations refused inside an unavailability window.
	Outages int
	// Errors counts injected transient I/O errors (forced + random).
	Errors int
	// TornReads counts Loads answered with garbage.
	TornReads int
	// LostCAS counts CompareAndSwap calls forced to report a lost race.
	LostCAS int
}

// outageWindow is one scheduled unavailability span [From, To) in
// virtual time.
type outageWindow struct {
	from, to time.Duration
}

// FaultStore implements LeaseStore, delegating to the wrapped store's,
// with seeded fault injection. Safe for concurrent use; the
// deterministic harnesses drive it single-threaded.
type FaultStore struct {
	raw   LeaseStore
	clock FaultClock

	mu       sync.Mutex
	cfg      FaultConfig
	rngState uint64
	outages  []outageWindow
	failNext int
	loseCAS  int
	hook     func(op Op, key string)
	stats    FaultStats
}

// NewFaultStore wraps raw. The clock may be nil when no outage windows
// or latency are used (purely forced/probabilistic injection).
func NewFaultStore(raw LeaseStore, clock FaultClock, cfg FaultConfig) *FaultStore {
	f := &FaultStore{raw: raw, clock: clock, cfg: cfg, rngState: cfg.Seed ^ 0x9E3779B97F4A7C15}
	if f.rngState == 0 {
		f.rngState = 0x2545F4914F6CDD1D
	}
	f.stats.Ops = make(map[Op]int)
	return f
}

// SetHook installs fn to run before every operation touches the wrapped
// store (after outage/error injection decided to let it through). The
// hook may operate on the RAW store — that is the point: it models a
// concurrent actor slipping in between a caller's read and its write.
// Pass nil to remove.
func (f *FaultStore) SetHook(fn func(op Op, key string)) {
	f.mu.Lock()
	f.hook = fn
	f.mu.Unlock()
}

// ScheduleOutage makes every operation in virtual-time window
// [from, to) fail with ErrUnavailable. Windows may overlap; they are
// never removed (chaos schedules are append-only).
func (f *FaultStore) ScheduleOutage(from, to time.Duration) error {
	if f.clock == nil {
		return fmt.Errorf("statestore: outage windows need a clock")
	}
	if to <= from {
		return fmt.Errorf("statestore: outage window [%v,%v) is empty", from, to)
	}
	f.mu.Lock()
	f.outages = append(f.outages, outageWindow{from: from, to: to})
	f.mu.Unlock()
	return nil
}

// FailNext forces the next n operations to fail with a transient I/O
// error, before any dice are rolled.
func (f *FaultStore) FailNext(n int) {
	f.mu.Lock()
	f.failNext = n
	f.mu.Unlock()
}

// LoseNextCAS forces the next n CompareAndSwap calls to report a lost
// race (false, nil) without touching the record.
func (f *FaultStore) LoseNextCAS(n int) {
	f.mu.Lock()
	f.loseCAS = n
	f.mu.Unlock()
}

// Stats returns a copy of the injection counters.
func (f *FaultStore) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.stats
	s.Ops = make(map[Op]int, len(f.stats.Ops))
	for k, v := range f.stats.Ops {
		s.Ops[k] = v
	}
	return s
}

// next is the xorshift64* stream behind every probabilistic choice.
// Requires f.mu.
func (f *FaultStore) next() uint64 {
	f.rngState ^= f.rngState << 13
	f.rngState ^= f.rngState >> 7
	f.rngState ^= f.rngState << 17
	return f.rngState * 0x2545F4914F6CDD1D
}

// roll draws one uniform [0,1) sample. Requires f.mu.
func (f *FaultStore) roll() float64 {
	return float64(f.next()>>11) / float64(1<<53)
}

// gate runs the common pre-operation injection: latency, outage
// windows, forced failures, probabilistic transient errors, then the
// hook. It returns a non-nil error when the operation must fail, and
// the hook to run (outside the lock) when it may proceed.
func (f *FaultStore) gate(op Op, key string) (func(op Op, key string), error) {
	f.mu.Lock()
	f.stats.Ops[op]++
	if f.cfg.Latency > 0 {
		if adv, ok := f.clock.(FaultAdvancer); ok {
			adv.Advance(f.cfg.Latency)
		}
	}
	if f.clock != nil && len(f.outages) > 0 {
		now := f.clock.Now()
		for _, w := range f.outages {
			if now >= w.from && now < w.to {
				f.stats.Outages++
				f.mu.Unlock()
				return nil, fmt.Errorf("%w: injected outage at t=%v (%s %s)", ErrUnavailable, now, op, key)
			}
		}
	}
	if f.failNext > 0 {
		f.failNext--
		f.stats.Errors++
		f.mu.Unlock()
		return nil, fmt.Errorf("%w: injected transient error (%s %s)", ErrUnavailable, op, key)
	}
	if f.cfg.ErrProb > 0 && f.roll() < f.cfg.ErrProb {
		f.stats.Errors++
		f.mu.Unlock()
		return nil, fmt.Errorf("%w: injected transient error (%s %s)", ErrUnavailable, op, key)
	}
	hook := f.hook
	f.mu.Unlock()
	return hook, nil
}

// pass runs gate and, when the operation may proceed, the hook.
func (f *FaultStore) pass(op Op, key string) error {
	hook, err := f.gate(op, key)
	if hook != nil {
		hook(op, key)
	}
	return err
}

// Save implements Store.
func (f *FaultStore) Save(key string, value []byte) error {
	if err := f.pass(OpSave, key); err != nil {
		return err
	}
	return f.raw.Save(key, value)
}

// SaveGuarded implements LeaseStore. It passes the same gate as Save, so
// a guarded write meets the same outages, errors and hook.
func (f *FaultStore) SaveGuarded(g LeaseGuard, key string, value []byte) (bool, error) {
	if err := f.pass(OpSave, key); err != nil {
		return false, err
	}
	return f.raw.SaveGuarded(g, key, value)
}

// DeleteGuarded implements LeaseStore, through Delete's gate.
func (f *FaultStore) DeleteGuarded(g LeaseGuard, key string) (bool, error) {
	if err := f.pass(OpDelete, key); err != nil {
		return false, err
	}
	return f.raw.DeleteGuarded(g, key)
}

// Load implements Store, optionally answering with deterministic torn
// garbage instead of the stored bytes.
func (f *FaultStore) Load(key string) ([]byte, error) {
	if err := f.pass(OpLoad, key); err != nil {
		return nil, err
	}
	v, err := f.raw.Load(key)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	torn := f.cfg.TornReadProb > 0 && f.roll() < f.cfg.TornReadProb
	var garbage []byte
	if torn {
		f.stats.TornReads++
		// Same length as the real value, derived from the stream: long
		// enough to look plausible, never CRC-consistent by accident in
		// practice — the codecs must reject it, not the test rig.
		garbage = make([]byte, len(v))
		for i := range garbage {
			garbage[i] = byte(f.next())
		}
	}
	f.mu.Unlock()
	if torn {
		return garbage, nil
	}
	return v, nil
}

// Delete implements Store.
func (f *FaultStore) Delete(key string) error {
	if err := f.pass(OpDelete, key); err != nil {
		return err
	}
	return f.raw.Delete(key)
}

// Keys implements Store.
func (f *FaultStore) Keys(prefix string) ([]string, error) {
	if err := f.pass(OpKeys, prefix); err != nil {
		return nil, err
	}
	return f.raw.Keys(prefix)
}

// CompareAndSwap implements LeaseStore. A forced or rolled lost race
// reports (false, nil) without touching the record — indistinguishable,
// by design, from losing for real.
func (f *FaultStore) CompareAndSwap(key string, prev, next []byte) (bool, error) {
	hook, err := f.gate(OpCAS, key)
	if err != nil {
		return false, err
	}
	f.mu.Lock()
	lose := false
	if f.loseCAS > 0 {
		f.loseCAS--
		lose = true
	} else if f.cfg.CASLoseProb > 0 && f.roll() < f.cfg.CASLoseProb {
		lose = true
	}
	if lose {
		f.stats.LostCAS++
	}
	f.mu.Unlock()
	if hook != nil {
		hook(OpCAS, key)
	}
	if lose {
		return false, nil
	}
	return f.raw.CompareAndSwap(key, prev, next)
}

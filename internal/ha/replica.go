package ha

import (
	"errors"
	"fmt"
	"time"

	"p4auth/internal/controller"
	"p4auth/internal/obs"
	"p4auth/internal/statestore"
)

// ReplicaConfig wires one controller replica into an HA pair (or group).
type ReplicaConfig struct {
	// Name identifies the replica in the lease record and the audit log.
	Name string
	// Store is the shared durable store both replicas attach to.
	Store statestore.LeaseStore
	// Clock is the shared time base for lease grant/expiry decisions.
	Clock Clock
	// TTL is the lease validity window; the active must Renew within it.
	TTL time.Duration
	// Controller is this replica's controller, with all fleet switches
	// already registered. The replica takes over its crash-safety store
	// (wrapped in the fence) and its send fence.
	Controller *controller.Controller
	// Observer, when non-nil, is installed on the controller — the chaos
	// harness shares one across replicas so the audit trail and metrics
	// span the failover.
	Observer *obs.Observer
	// FenceGrace, when positive, arms bounded-staleness fencing: a store
	// read error inside the fence is answered from the last good read for
	// at most this long. FenceGrace+MaxSkew must be strictly less than
	// TTL, or NewReplica refuses (the non-overlap proof needs the margin;
	// see LeaseManager.ConfigureStaleness). Zero keeps the strict fence:
	// any store error refuses immediately.
	FenceGrace time.Duration
	// MaxSkew bounds the clock disagreement assumed between this replica
	// and any would-be successor when admitting on cached evidence.
	MaxSkew time.Duration
}

// haMetrics is the replica's pre-resolved ha.* instrument set.
type haMetrics struct {
	failovers      *obs.Counter
	leaseAcquire   *obs.Counter
	leaseRenew     *obs.Counter
	fencedWrites   *obs.Counter
	fencedPersists *obs.Counter
	tailRecords    *obs.Counter
	failoverNs     *obs.Histogram
	// Bounded-staleness fencing: episodes entered/resolved and the
	// admissions made on cached evidence while the store was dark.
	degradedEnters    *obs.Counter
	degradedExits     *obs.Counter
	degradedExhausted *obs.Counter
	degradedAdmits    *obs.Counter
}

// Replica is one controller in an active/standby group. A replica is
// born fenced: until Activate or Promote wins the lease, every signed
// send and every durable persist of its controller is refused. The
// standby's job while fenced is TailOnce — following the active's
// snapshots and WAL so promotion is a warm restart over known state.
type Replica struct {
	name  string
	mgr   *LeaseManager
	ctl   *controller.Controller
	clock Clock
	ob    *obs.Observer
	met   haMetrics
	// ctlTail / walTail follow the active's snapshots and journal.
	ctlTail *statestore.Tailer
	walTail *statestore.Tailer
}

// NewReplica builds a fenced replica around cfg.Controller: installs the
// send fence, reattaches crash safety through a FencedStore, and points
// the tailers at the shared store.
func NewReplica(cfg ReplicaConfig) (*Replica, error) {
	if cfg.Controller == nil {
		return nil, fmt.Errorf("ha: replica needs a controller")
	}
	if cfg.Clock == nil {
		return nil, fmt.Errorf("ha: replica needs a clock")
	}
	mgr, err := NewLeaseManager(cfg.Store, cfg.Clock, cfg.Name, cfg.TTL)
	if err != nil {
		return nil, err
	}
	if err := mgr.ConfigureStaleness(cfg.FenceGrace, cfg.MaxSkew); err != nil {
		return nil, err
	}
	ob := cfg.Observer
	if ob == nil {
		ob = cfg.Controller.Observer()
	} else {
		cfg.Controller.SetObserver(ob)
	}
	m := ob.Metrics
	r := &Replica{
		name:  cfg.Name,
		mgr:   mgr,
		ctl:   cfg.Controller,
		clock: cfg.Clock,
		ob:    ob,
		met: haMetrics{
			failovers:      m.Counter("ha.failovers"),
			leaseAcquire:   m.Counter("ha.lease_acquire"),
			leaseRenew:     m.Counter("ha.lease_renew"),
			fencedWrites:   m.Counter("ha.fenced_writes"),
			fencedPersists: m.Counter("ha.fenced_persists"),
			tailRecords:    m.Counter("ha.tail_records"),
			failoverNs:     m.Histogram("ha.failover_ns"),

			degradedEnters:    m.Counter("ha.degraded_enters"),
			degradedExits:     m.Counter("ha.degraded_exits"),
			degradedExhausted: m.Counter("ha.degraded_exhausted"),
			degradedAdmits:    m.Counter("ha.degraded_admits"),
		},
		ctlTail: statestore.NewTailer(cfg.Store, "ctl/"),
		walTail: statestore.NewTailer(cfg.Store, "wal/"),
	}
	tenure := func() statestore.LeaseGuard {
		return statestore.LeaseGuard{Key: statestore.LeaseKey, Holder: cfg.Name, Epoch: mgr.HeldEpoch()}
	}
	fenced := NewFencedStore(cfg.Store, mgr.Fence, tenure, func(op, key string, ferr error) {
		r.met.fencedPersists.Inc()
		r.ob.Audit.Append(obs.EvFencedWrite, r.name, FenceCause(ferr), 0, mgr.HeldEpoch())
	})
	mgr.SetDegradedObserver(func(ev DegradedEvent, detail string) {
		switch ev {
		case DegradedAdmit:
			// High-frequency (one per admitted send); counted, not audited.
			r.met.degradedAdmits.Inc()
			return
		case DegradedEnter:
			r.met.degradedEnters.Inc()
		case DegradedExit:
			r.met.degradedExits.Inc()
		case DegradedExhausted:
			r.met.degradedExhausted.Inc()
		}
		r.ob.Audit.Append(obs.EvDegraded, r.name, string(ev), 0, mgr.HeldEpoch())
	})
	if err := cfg.Controller.EnableCrashSafety(fenced); err != nil {
		return nil, err
	}
	cfg.Controller.SetSendFence(r.sendFence)
	return r, nil
}

// sendFence is installed as the controller's wire-send fence: every
// refusal is counted and audited before the error reaches the transport.
func (r *Replica) sendFence() error {
	err := r.mgr.Fence()
	if err != nil {
		r.met.fencedWrites.Inc()
		r.ob.Audit.Append(obs.EvFencedWrite, r.name, FenceCause(err), 0, r.mgr.HeldEpoch())
	}
	return err
}

// Name returns the replica name.
func (r *Replica) Name() string { return r.name }

// Controller returns the replica's controller.
func (r *Replica) Controller() *controller.Controller { return r.ctl }

// Epoch returns the fencing epoch of the current tenure (0 if fenced).
func (r *Replica) Epoch() uint64 { return r.mgr.HeldEpoch() }

// IsActive reports whether the replica currently passes its own fence.
// Note this consults the store — it goes false the moment a usurper's
// record lands, even before this replica notices in any other way.
func (r *Replica) IsActive() bool { return r.mgr.Fence() == nil }

// Fence exposes the raw fence check (nil = active).
func (r *Replica) Fence() error { return r.mgr.Fence() }

// Activate claims the lease without recovery — the bootstrap path for
// the first active, which initializes keys itself afterwards. The grant
// is counted and audited as a failover with the given cause.
func (r *Replica) Activate(cause string) (*statestore.Lease, error) {
	l, err := r.mgr.Acquire()
	if err != nil {
		return nil, err
	}
	r.met.leaseAcquire.Inc()
	r.met.failovers.Inc()
	r.ob.Audit.Append(obs.EvFailover, r.name, cause, 0, l.Epoch)
	return l, nil
}

// Renew extends the active tenure; the lease record is the heartbeat.
func (r *Replica) Renew() error {
	if _, err := r.mgr.Renew(); err != nil {
		return err
	}
	r.met.leaseRenew.Inc()
	return nil
}

// Observer returns the replica's observer (shared across the group when
// ReplicaConfig.Observer was set).
func (r *Replica) Observer() *obs.Observer { return r.ob }

// CurrentLease reads the stored lease record through the replica's
// manager: (nil, nil) means no valid record (absent, corrupt, or torn).
// Election logic uses this to find the incumbent and its expiry.
func (r *Replica) CurrentLease() (*statestore.Lease, error) { return r.mgr.CurrentLease() }

// InDegraded reports whether the replica's fence is currently admitting
// on cached evidence (store unreadable, grace not yet exhausted).
func (r *Replica) InDegraded() bool { return r.mgr.InDegraded() }

// TailOnce polls the active's snapshots and WAL once, returning how many
// changed records were observed. The standby runs this continuously; the
// records themselves stay in the store (recovery reads them from there),
// tailing is about knowing how far behind the store the standby can be —
// which is zero, by construction, the moment Poll returns.
func (r *Replica) TailOnce() (int, error) {
	n := 0
	for _, t := range []*statestore.Tailer{r.ctlTail, r.walTail} {
		ch, err := t.Poll()
		if err != nil {
			return n, err
		}
		n += len(ch)
	}
	if n > 0 {
		r.met.tailRecords.Add(uint64(n))
	}
	return n, nil
}

// Promote is the failover: acquire the lease (fencing the deposed active
// from this instant), then warm-restart every switch from the tailed
// snapshots and journal — replay floors come back lease-bumped
// (core.FloorLease) and surviving write intents settle by authenticated
// read-back, exactly as a single-controller crash restart. The lease is
// renewed between switches: a fleet-sized recovery can outlast the TTL,
// and an active that let its own grant lapse mid-restart would fence
// itself half-recovered (the lease record doubles as the heartbeat).
// Returns the per-switch warm map, the failover duration on the replica
// clock, and any recovery error.
func (r *Replica) Promote(cause string) (map[string]bool, time.Duration, error) {
	t0 := r.clock.Now()
	if _, err := r.Activate(cause); err != nil {
		return nil, 0, err
	}
	names := r.ctl.SwitchNames()
	warm := make(map[string]bool, len(names))
	var errs []error
	for _, name := range names {
		if r.ctl.Killed() {
			// The replica died mid-promotion (chaos kill, crash). Stop at
			// once: the group's next candidate must see an abandoned, not a
			// half-driven, promotion.
			errs = append(errs, fmt.Errorf("ha: replica killed mid-promotion before %s: %w", name, controller.ErrKilled))
			break
		}
		w, err := r.ctl.WarmRestart(name)
		warm[name] = w
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", name, err))
		}
		if err := r.Renew(); err != nil {
			// Superseded mid-promotion: stop driving switches immediately —
			// the fence already refuses, finishing would only burn retries.
			errs = append(errs, fmt.Errorf("ha: lease lost mid-promotion after %s: %w", name, err))
			break
		}
	}
	d := r.clock.Now() - t0
	r.met.failoverNs.Observe(uint64(d))
	return warm, d, errors.Join(errs...)
}

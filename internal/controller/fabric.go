package controller

// Link-repair surface for the fabric supervisor: typed key-version-skew
// detection across a link, and epoch-fenced transactional port-key
// repair. The fence makes repair idempotent under supervision races: a
// repair attempt carries the epoch it was issued under, and an attempt
// whose epoch has been superseded (a newer repair generation started) or
// already committed is refused before any message is sent — a stale
// in-flight init can never downgrade a newer key.

import (
	"errors"
	"fmt"
	"sort"
)

// ErrKeySkew marks a detected key-version skew across a link's two port
// slots (one-sided rollover). Test with errors.Is; unwrap the detail with
// errors.As into *KeySkewError.
var ErrKeySkew = errors.New("controller: port key-version skew across link")

// ErrStaleEpoch is returned when a repair attempt's epoch has been
// superseded or already committed; the attempt sent nothing.
var ErrStaleEpoch = errors.New("controller: repair epoch superseded")

// KeySkewError reports unequal port-slot install counters on a link's two
// ends — the signature of an interrupted or one-sided port-key exchange.
// Callers distinguish "retry" (the shared key still exists; re-run the
// flow) from "resync" (versions diverged; a realigning init is required)
// by the presence of this error in the chain.
type KeySkewError struct {
	A  string
	PA int
	B  string
	PB int
	// VerA and VerB are the install counters read from each end.
	VerA, VerB uint8
}

// Error implements error.
func (e *KeySkewError) Error() string {
	return fmt.Sprintf("controller: key-version skew on %s:%d<->%s:%d (pa_ver %d vs %d)",
		e.A, e.PA, e.B, e.PB, e.VerA, e.VerB)
}

// Unwrap ties the typed detail to the ErrKeySkew sentinel.
func (e *KeySkewError) Unwrap() error { return ErrKeySkew }

// PeerAhead reports whether the peer end (B) ran ahead of A — the
// direction matters for operators: an ahead peer means A missed the final
// install leg and a resync must realign A upward, never roll B back.
func (e *KeySkewError) PeerAhead() bool { return int8(e.VerB-e.VerA) > 0 }

// wrapSkew attaches skew detail to a repair failure so callers see both
// the operational error and the typed cause.
func wrapSkew(err error, skew *KeySkewError) error {
	if err == nil || skew == nil {
		return err
	}
	return errors.Join(err, skew)
}

// LinkEnd names one end of a registered adjacency.
type LinkEnd struct {
	Switch string
	Port   int
}

// Links returns each registered adjacency once, driven from its
// lexicographically first end, in deterministic order — the iteration
// surface for link supervisors and inspection tools.
func (c *Controller) Links() [][2]LinkEnd {
	pairs := c.links()
	out := make([][2]LinkEnd, len(pairs))
	for i, lk := range pairs {
		out[i] = [2]LinkEnd{
			{Switch: lk[0].sw, Port: lk[0].port},
			{Switch: lk[1].sw, Port: lk[1].port},
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0].Switch != out[j][0].Switch {
			return out[i][0].Switch < out[j][0].Switch
		}
		return out[i][0].Port < out[j][0].Port
	})
	return out
}

// PortKeySkew reads both ends' port-slot install counters over the
// authenticated C-DP channel and returns the skew as a typed value (nil
// when the counters agree). The separate error return reports transport
// failures only.
func (c *Controller) PortKeySkew(a string, pa int) (*KeySkewError, error) {
	r, err := c.linkRun(a, pa, true)
	if err != nil {
		return nil, err
	}
	verA, verB, err := r.readVers()
	if err != nil || verA == verB {
		return nil, err
	}
	return r.skew(verA, verB), nil
}

// repairFence is the per-link epoch state behind RepairPortKey. latest is
// the highest epoch any attempt was admitted under; committed the highest
// that completed. Both only move forward.
type repairFence struct {
	latest    uint64
	committed uint64
}

// linkFenceKey normalizes a link to its lexicographically first end so
// both directions share one fence.
func (c *Controller) linkFenceKey(a string, pa int, b string, pb int) portKey {
	k, o := portKey{a, pa}, portKey{b, pb}
	if o.sw < k.sw || (o.sw == k.sw && o.port < k.port) {
		return o
	}
	return k
}

// NextRepairEpoch issues a fresh repair epoch for the link owning
// (a, pa): strictly greater than every epoch issued or committed before
// it. Each quarantine generation of a supervised link draws one epoch and
// runs its repair attempts under it; issuing a new epoch invalidates all
// in-flight attempts under older ones.
func (c *Controller) NextRepairEpoch(a string, pa int) (uint64, error) {
	peer, ok := c.peerOf(a, pa)
	if !ok {
		return 0, fmt.Errorf("controller: %s port %d has no registered peer", a, pa)
	}
	lk := c.linkFenceKey(a, pa, peer.sw, peer.port)
	c.mu.Lock()
	defer c.mu.Unlock()
	f := c.repairs[lk]
	if f == nil {
		f = &repairFence{}
		c.repairs[lk] = f
	}
	f.latest++
	return f.latest, nil
}

// RepairPortKey re-establishes the port key on the link owning (a, pa)
// with a full realigning init (the repair path for one-sided rollover and
// link-flap desync), fenced by epoch: the attempt is refused with
// ErrStaleEpoch — before any message is sent, and again before every
// subsequent protocol leg — if a newer epoch has been admitted or this
// epoch already committed. On success both ends hold a fresh shared port
// key at equal version numbers.
func (c *Controller) RepairPortKey(a string, pa int, epoch uint64) (KMPResult, error) {
	r, err := c.linkRun(a, pa, true)
	if err != nil {
		return KMPResult{}, err
	}
	b, pb := r.b.h.name, r.b.port
	lk := c.linkFenceKey(a, pa, b, pb)

	// Admit the epoch, or refuse before anything reaches the wire.
	c.mu.Lock()
	f := c.repairs[lk]
	if f == nil {
		f = &repairFence{}
		c.repairs[lk] = f
	}
	if epoch <= f.committed || epoch < f.latest {
		committed, latest := f.committed, f.latest
		c.mu.Unlock()
		return KMPResult{}, fmt.Errorf("%w: epoch %d on %s:%d<->%s:%d (committed %d, latest %d)",
			ErrStaleEpoch, epoch, a, pa, b, pb, committed, latest)
	}
	f.latest = epoch
	c.mu.Unlock()

	// Re-checked before every leg: a newer admission aborts this attempt
	// mid-flight, so its remaining installs never land on top of the
	// newer repair's key state.
	r.fence = func() error {
		c.mu.Lock()
		defer c.mu.Unlock()
		if epoch <= f.committed || epoch < f.latest {
			return fmt.Errorf("%w: epoch %d overtaken mid-repair (committed %d, latest %d)",
				ErrStaleEpoch, epoch, f.committed, f.latest)
		}
		return nil
	}

	c.rolloverBegin(a, CausePortRepair, uint64(pa))
	err = r.portInit()
	if err == nil {
		c.mu.Lock()
		if epoch > f.committed {
			f.committed = epoch
		}
		c.mu.Unlock()
		err = errors.Join(c.autoPersist(a), c.autoPersist(b))
	}
	c.rolloverEnd(a, CausePortRepair, uint64(pa), err)
	return r.res, err
}

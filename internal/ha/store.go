package ha

import (
	"fmt"

	"p4auth/internal/statestore"
)

// FencedStore wraps a statestore.Store so that durable WRITES pass the
// lease fence while reads stay open. The controller's crash-safety layer
// persists through this wrapper: a deposed active can no longer advance
// the shared snapshots or journal — its WAL intents die at the store
// boundary, before the standby could ever tail them. Reads are unfenced
// because the standby must tail and recover from the store while
// explicitly NOT holding the lease.
//
// The lease record itself is managed through the raw store (the
// LeaseManager writes it by CAS); a FencedStore never carries it.
type FencedStore struct {
	raw   statestore.LeaseStore
	fence func() error
	// tenure names the lease tenure the fence admits: each admitted
	// mutation is a guarded write under it, so a successor's Acquire
	// between the fence check and the write refuses the write instead of
	// letting a deposed active's journal intent land after the successor
	// has recovered.
	tenure func() statestore.LeaseGuard
	// onRefusal, when set, observes each refused mutation (metrics +
	// audit hook; op is "save" or "delete").
	onRefusal func(op, key string, err error)
}

// NewFencedStore wraps raw; every Save/Delete consults fence first and
// then writes guarded by tenure.
func NewFencedStore(raw statestore.LeaseStore, fence func() error, tenure func() statestore.LeaseGuard, onRefusal func(op, key string, err error)) *FencedStore {
	return &FencedStore{raw: raw, fence: fence, tenure: tenure, onRefusal: onRefusal}
}

// Save implements Store, refusing when fenced.
func (s *FencedStore) Save(key string, value []byte) error {
	return s.mutate("save", "persist", key,
		func(g statestore.LeaseGuard) (bool, error) { return s.raw.SaveGuarded(g, key, value) })
}

// Delete implements Store, refusing when fenced.
func (s *FencedStore) Delete(key string) error {
	return s.mutate("delete", "delete", key,
		func(g statestore.LeaseGuard) (bool, error) { return s.raw.DeleteGuarded(g, key) })
}

// mutate runs one guarded mutation behind the fence. A guard lost to a
// successor's acquisition is refused, observed and reported like a fence
// refusal.
func (s *FencedStore) mutate(op, verb, key string, guarded func(statestore.LeaseGuard) (bool, error)) error {
	err := s.fence()
	if err == nil {
		g := s.tenure()
		ok, gerr := guarded(g)
		if ok || gerr != nil {
			return gerr
		}
		err = &FenceError{Cause: CauseDeposed, Detail: fmt.Sprintf("lease left %s epoch %d before the write", g.Holder, g.Epoch)}
	}
	if s.onRefusal != nil {
		s.onRefusal(op, key, err)
	}
	return fmt.Errorf("ha: fenced %s of %s: %w", verb, key, err)
}

// Load implements Store (unfenced).
func (s *FencedStore) Load(key string) ([]byte, error) { return s.raw.Load(key) }

// Keys implements Store (unfenced).
func (s *FencedStore) Keys(prefix string) ([]string, error) { return s.raw.Keys(prefix) }

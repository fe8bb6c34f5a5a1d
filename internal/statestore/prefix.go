package statestore

import (
	"fmt"
	"strings"
)

// PrefixStore presents a sub-namespace of an underlying Store as a
// complete store of its own: every key the caller uses is transparently
// rooted under a fixed prefix, and keys returned by Keys have the prefix
// stripped. Two PrefixStore views with distinct prefixes over the same
// backing store are fully independent — same well-known keys (the lease
// record, ctl/ and wal/ trees), zero collisions — which is how the
// controller hierarchy gives every pod replica group and the global
// broker tier an independent WAL/lease prefix inside one shared durable
// store.
// Its conditional and guarded writes run inside the view too, so a
// prefixed view can carry a PALS lease.
type PrefixStore struct {
	raw    LeaseStore
	prefix string // always ends in "/"
}

// Prefix returns a view of raw rooted at the given prefix. The prefix
// must be a valid key path (one or more [A-Za-z0-9._-] segments); a
// trailing slash is optional.
func Prefix(raw LeaseStore, prefix string) (*PrefixStore, error) {
	trimmed := strings.TrimSuffix(prefix, "/")
	if err := ValidateKey(trimmed); err != nil {
		return nil, fmt.Errorf("statestore: invalid prefix %q: %v", prefix, err)
	}
	return &PrefixStore{raw: raw, prefix: trimmed + "/"}, nil
}

// Save implements Store.
func (p *PrefixStore) Save(key string, value []byte) error {
	if err := ValidateKey(key); err != nil {
		return err
	}
	return p.raw.Save(p.prefix+key, value)
}

// Load implements Store.
func (p *PrefixStore) Load(key string) ([]byte, error) {
	if err := ValidateKey(key); err != nil {
		return nil, err
	}
	return p.raw.Load(p.prefix + key)
}

// Delete implements Store.
func (p *PrefixStore) Delete(key string) error {
	if err := ValidateKey(key); err != nil {
		return err
	}
	return p.raw.Delete(p.prefix + key)
}

// Keys implements Store: it lists keys under the view's namespace with
// the view prefix stripped, so results are valid arguments to Load.
func (p *PrefixStore) Keys(prefix string) ([]string, error) {
	keys, err := p.raw.Keys(p.prefix + prefix)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		out = append(out, strings.TrimPrefix(k, p.prefix))
	}
	return out, nil
}

// CompareAndSwap implements LeaseStore.
func (p *PrefixStore) CompareAndSwap(key string, prev, next []byte) (bool, error) {
	if err := ValidateKey(key); err != nil {
		return false, err
	}
	return p.raw.CompareAndSwap(p.prefix+key, prev, next)
}

// SaveGuarded implements LeaseStore; the guard's lease key is read
// inside the view, like every other key.
func (p *PrefixStore) SaveGuarded(g LeaseGuard, key string, value []byte) (bool, error) {
	if err := ValidateKey(key); err != nil {
		return false, err
	}
	g.Key = p.prefix + g.Key
	return p.raw.SaveGuarded(g, p.prefix+key, value)
}

// DeleteGuarded implements LeaseStore.
func (p *PrefixStore) DeleteGuarded(g LeaseGuard, key string) (bool, error) {
	if err := ValidateKey(key); err != nil {
		return false, err
	}
	g.Key = p.prefix + g.Key
	return p.raw.DeleteGuarded(g, p.prefix+key)
}

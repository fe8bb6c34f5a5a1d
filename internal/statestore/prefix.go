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
//
// If the backing store implements Swapper, the view does too, so a
// prefixed view can carry a PALS lease.
type PrefixStore struct {
	raw    Store
	swap   Swapper // nil when raw does not support CAS
	prefix string  // always ends in "/"
}

// Prefix returns a view of raw rooted at the given prefix. The prefix
// must be a valid key path (one or more [A-Za-z0-9._-] segments); a
// trailing slash is optional.
func Prefix(raw Store, prefix string) (*PrefixStore, error) {
	trimmed := strings.TrimSuffix(prefix, "/")
	if err := ValidateKey(trimmed); err != nil {
		return nil, fmt.Errorf("statestore: invalid prefix %q: %v", prefix, err)
	}
	p := &PrefixStore{raw: raw, prefix: trimmed + "/"}
	if sw, ok := raw.(Swapper); ok {
		p.swap = sw
	}
	return p, nil
}

// MustPrefix is Prefix that panics on error, for topology builders.
func MustPrefix(raw Store, prefix string) *PrefixStore {
	p, err := Prefix(raw, prefix)
	if err != nil {
		panic(err)
	}
	return p
}

// Root returns the view's prefix, with the trailing slash.
func (p *PrefixStore) Root() string { return p.prefix }

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

// CompareAndSwap implements Swapper when the backing store does; on a
// CAS-less backing store it reports an error rather than silently
// losing atomicity.
func (p *PrefixStore) CompareAndSwap(key string, prev, next []byte) (bool, error) {
	if p.swap == nil {
		return false, fmt.Errorf("statestore: backing store of prefix %q does not support CompareAndSwap", p.prefix)
	}
	if err := ValidateKey(key); err != nil {
		return false, err
	}
	return p.swap.CompareAndSwap(p.prefix+key, prev, next)
}

// SaveGuarded implements GuardedWriter when the backing store does; the
// guard's lease key is read inside the view, like every other key.
func (p *PrefixStore) SaveGuarded(g LeaseGuard, key string, value []byte) (bool, error) {
	gw, err := p.guarded(key)
	if err != nil {
		return false, err
	}
	g.Key = p.prefix + g.Key
	return gw.SaveGuarded(g, p.prefix+key, value)
}

// DeleteGuarded implements GuardedWriter when the backing store does.
func (p *PrefixStore) DeleteGuarded(g LeaseGuard, key string) (bool, error) {
	gw, err := p.guarded(key)
	if err != nil {
		return false, err
	}
	g.Key = p.prefix + g.Key
	return gw.DeleteGuarded(g, p.prefix+key)
}

// guarded validates key and returns the backing store's GuardedWriter.
func (p *PrefixStore) guarded(key string) (GuardedWriter, error) {
	gw, ok := p.raw.(GuardedWriter)
	if !ok {
		return nil, fmt.Errorf("statestore: backing store of prefix %q does not support guarded writes", p.prefix)
	}
	return gw, ValidateKey(key)
}

// Package statestore is the durable key-value substrate behind P4Auth's
// crash-survival layer: keystore snapshots, register write-ahead journal
// entries, and device register images are persisted here so a controller
// or switch-agent restart can warm-recover instead of falling back to the
// compile-time K_seed (§VI-A makes re-seeding expensive by design: the
// seed ships inside the switch binary).
//
// The interface is a flat, small key-value store with atomic whole-value
// writes. The package provides one backing store, Mem, which the
// simulations, the chaos harnesses and the tests use, and two wrappers
// over any LeaseStore: PrefixStore (a namespace) and FaultStore (seeded
// fault injection). A deployment that must survive a process restart
// supplies its own Store or LeaseStore; PROTOCOL.md ("Crash recovery &
// persistence") states the contract it must meet, and the package's
// store contract tests are the check to run it through.
package statestore

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"unicode/utf8"
)

// ErrNotFound is returned by Load for a key that was never saved (or was
// deleted).
var ErrNotFound = errors.New("statestore: key not found")

// Store is a durable key-value store. Save must be atomic per key: a
// crash during Save leaves either the previous value or the new one,
// never a torn write (the snapshot codecs carry checksums as a second
// line of defence). A write is durable before it returns: a store that
// renames a file into place also syncs the directory entry. Keys are
// slash-separated paths restricted to [A-Za-z0-9._-] per segment, so
// they map onto filenames.
type Store interface {
	// Save durably writes value under key, replacing any previous value.
	// It must not keep value after it returns: callers reuse the buffer.
	Save(key string, value []byte) error
	// Load returns the value under key, or ErrNotFound.
	Load(key string) ([]byte, error)
	// Delete removes key; deleting an absent key is a no-op.
	Delete(key string) error
	// Keys returns all stored keys with the given prefix, sorted.
	Keys(prefix string) ([]string, error)
}

// ValidateKey enforces the portable key syntax shared by all
// implementations. It makes one pass over the bytes and allocates only
// for the error it returns.
func ValidateKey(key string) error {
	if key == "" {
		return fmt.Errorf("statestore: empty key")
	}
	start := 0 // first byte of the current segment
	for i := 0; i <= len(key); i++ {
		if i == len(key) || key[i] == '/' {
			if seg := key[start:i]; seg == "" || seg == "." || seg == ".." {
				return fmt.Errorf("statestore: key %q has an invalid path segment", key)
			}
			start = i + 1
			continue
		}
		if c := key[i]; !keyByte(c) {
			r := rune(c)
			if c >= utf8.RuneSelf {
				r, _ = utf8.DecodeRuneInString(key[i:])
			}
			return fmt.Errorf("statestore: key %q contains invalid character %q", key, r)
		}
	}
	return nil
}

// keyByte reports whether c may appear in a key segment.
func keyByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
		c == '.' || c == '_' || c == '-'
}

// Mem is an in-memory Store. It is safe for concurrent use and copies
// values on both Save and Load, so callers can never alias stored bytes.
// A Mem store survives a *simulated* crash (the process stays up while a
// modeled node restarts), which is exactly what the chaos harness needs.
type Mem struct {
	mu sync.Mutex
	m  map[string][]byte
	// saves counts successful Save calls, for tests asserting persistence
	// cadence.
	saves int
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem {
	return &Mem{m: make(map[string][]byte)}
}

// Save implements Store.
func (s *Mem) Save(key string, value []byte) error {
	if err := ValidateKey(key); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = append([]byte(nil), value...)
	s.saves++
	return nil
}

// Load implements Store.
func (s *Mem) Load(key string) ([]byte, error) {
	if err := ValidateKey(key); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[key]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return append([]byte(nil), v...), nil
}

// Delete implements Store.
func (s *Mem) Delete(key string) error {
	if err := ValidateKey(key); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.m, key)
	return nil
}

// Keys implements Store.
func (s *Mem) Keys(prefix string) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for k := range s.m {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out, nil
}

// Saves reports how many Save calls have completed.
func (s *Mem) Saves() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.saves
}

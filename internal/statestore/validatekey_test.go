package statestore

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// validateKeySplit is ValidateKey as it was before the one-pass scan:
// split on '/', then check each segment and each rune of it. It lives on
// as the reference the scan is held to.
func validateKeySplit(key string) error {
	if key == "" {
		return fmt.Errorf("statestore: empty key")
	}
	for _, seg := range strings.Split(key, "/") {
		if seg == "" || seg == "." || seg == ".." {
			return fmt.Errorf("statestore: key %q has an invalid path segment", key)
		}
		for _, r := range seg {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
				r == '.', r == '_', r == '-':
			default:
				return fmt.Errorf("statestore: key %q contains invalid character %q", key, r)
			}
		}
	}
	return nil
}

// sameVerdict fails unless both checks accept key, or both reject it with
// the same message.
func sameVerdict(t *testing.T, key string) {
	t.Helper()
	want, got := validateKeySplit(key), ValidateKey(key)
	switch {
	case want == nil && got == nil:
	case want == nil || got == nil:
		t.Fatalf("ValidateKey(%q) = %v, reference says %v", key, got, want)
	case want.Error() != got.Error():
		t.Fatalf("ValidateKey(%q) = %q, reference says %q", key, got, want)
	}
}

// keyPieces are what the seeded keys are built from: every kind of
// segment the rules name (empty, ".", ".."), separators that lead, trail
// and double, valid runs, invalid ASCII, multi-byte runes and a byte that
// is not UTF-8.
var keyPieces = []string{
	"", "/", "//", ".", "..", "...", "a", "Z9", "wal", "ctl", "_-", ".x", "x.",
	"0123456789abcdef", "$", " ", "\x00", "é", "日本", "\xff", "a\xffb", " ",
}

func TestValidateKeyMatchesSplit(t *testing.T) {
	for _, key := range []string{
		"", "/", "//", "a", "a/b", "/a", "a/", "a//b", ".", "..", "a/./b", "a/../b",
		"a/.", "../a", "...", "a/...", ".hidden", "wal/s1/00000000000000ff",
		"ctl/edge_0-1", "a b", "a$/..", "../a$", "a$b/", "é", "a/é/..", "\xff", "a/\xff",
		"日本/x", "x/日本", strings.Repeat("a/", 100) + "b",
	} {
		sameVerdict(t, key)
	}
	r := rand.New(rand.NewSource(1))
	var b strings.Builder
	for i := 0; i < 20000; i++ {
		b.Reset()
		for n := r.Intn(6); n >= 0; n-- {
			b.WriteString(keyPieces[r.Intn(len(keyPieces))])
		}
		sameVerdict(t, b.String())
	}
}

// FuzzValidateKey holds the one-pass scan to the split-based reference on
// arbitrary strings: same verdict, same error text.
func FuzzValidateKey(f *testing.F) {
	for _, p := range keyPieces {
		f.Add(p)
		f.Add("wal/" + p + "/1")
	}
	f.Fuzz(func(t *testing.T, key string) { sameVerdict(t, key) })
}

// TestValidateKeyAllocs: an accepted key costs no allocation.
func TestValidateKeyAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { _ = ValidateKey("wal/s1/00000000000000ff") }); n != 0 {
		t.Fatalf("ValidateKey of a valid key: %v allocs, want 0", n)
	}
}

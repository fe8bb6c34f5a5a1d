package main

import "testing"

// TestCheckFlags: a negative switch or link count is a usage error, not a
// panic in the fabric builder or a run that places a negative number of
// links.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		m, n int
		ok   bool
	}{
		{m: -1, n: 4},
		{m: 0, n: 0},
		{m: 4, n: -2},
		{m: 4, n: 4, ok: true},
		{m: 1, n: 0, ok: true},
	} {
		if err := checkFlags(tc.m, tc.n); (err == nil) != tc.ok {
			t.Errorf("-m %d -n %d: err %v, want ok %v", tc.m, tc.n, err, tc.ok)
		}
	}
}

package main

import "testing"

// TestCheckWords: a digest of zero or a negative number of words is a
// usage error, not a run that prints the one-word report.
func TestCheckWords(t *testing.T) {
	for _, tc := range []struct {
		words int
		ok    bool
	}{
		{words: 0},
		{words: -3},
		{words: 1, ok: true},
		{words: 8, ok: true},
	} {
		if err := checkWords(tc.words); (err == nil) != tc.ok {
			t.Errorf("-words %d: err %v, want ok %v", tc.words, err, tc.ok)
		}
	}
}

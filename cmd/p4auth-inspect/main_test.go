package main

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
)

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

// TestCommandLine: p4auth-inspect runs the report, a -dump, or one
// subcommand on its own, and rejects every other command line instead
// of printing the report in its place.
func TestCommandLine(t *testing.T) {
	for _, tc := range []struct {
		args string
		sub  string // the subcommand it runs; "" for the report
		ok   bool
	}{
		{args: "", ok: true},
		{args: "-target tofino", ok: true},
		{args: "-words 8", ok: true},
		{args: "-dump hula+p4auth", ok: true},
		{args: "metrics", sub: "metrics", ok: true},
		{args: "links", sub: "links", ok: true},
		{args: "ha", sub: "ha", ok: true},
		{args: "hierarchy", sub: "hierarchy", ok: true},
		{args: "bogus"},
		{args: "-target tofino stray"},
		{args: "metrics extra"},
		{args: "ha store/ha/lease"},
		{args: "snapshot store"},
		{args: "journal store"},
		{args: "-words 8 links"},
		{args: "hierarchy -words 8"},
		{args: "-words 0"},
	} {
		fs, r := newFlags(flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		err := fs.Parse(strings.Fields(tc.args))
		if err != nil {
			t.Fatalf("%q: %v", tc.args, err)
		}
		run, err := command(fs, r)
		if (err == nil) != tc.ok {
			t.Errorf("%q: err %v, want ok %v", tc.args, err, tc.ok)
			continue
		}
		if tc.ok && reflect.ValueOf(run).Pointer() != reflect.ValueOf(subcommands[tc.sub]).Pointer() {
			t.Errorf("%q: does not run %q", tc.args, tc.sub)
		}
	}
}

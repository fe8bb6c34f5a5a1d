package pisa_test

import (
	"testing"

	"p4auth/internal/hula"
	"p4auth/internal/pisa"
)

// BenchmarkCompileHULA times one cold Compile of the secure HULA program
// a k=4 fat-tree edge switch runs (two uplinks and the host port): what a
// switch built from a configuration not seen before pays.
func BenchmarkCompileHULA(b *testing.B) {
	prog, _, err := hula.BuildProgram(hula.DefaultParams(1, 3))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := pisa.Compile(prog, pisa.BMv2Profile()); err != nil {
			b.Fatal(err)
		}
	}
}

// TestHULABankWords holds a secure HULA switch's registers, P4Auth's
// included, to their declared widths: a register of width w keeps its
// entries in lanes of the smallest of 8, 16, 32 and 64 bits that holds w,
// 64/lane to a word, so its bank is ceil(Entries/lanes) words.
func TestHULABankWords(t *testing.T) {
	hs, err := hula.NewSwitch("s", hula.DefaultParams(1, 3), 1)
	if err != nil {
		t.Fatal(err)
	}
	regs := hs.Host.SW.Compiled().Registers()
	words := pisa.BankWords(hs.Host.SW)
	if len(words) != len(regs) {
		t.Fatalf("%d banks for %d registers", len(words), len(regs))
	}
	for i, r := range regs {
		lane := 8
		for lane < r.Width {
			lane *= 2
		}
		lanes := 64 / lane
		if n := (r.Entries + lanes - 1) / lanes; words[i] != n {
			t.Errorf("register %s (%d x %d bits) holds %d words, want %d", r.Name, r.Entries, r.Width, words[i], n)
		}
	}
}

// Command p4auth-inspect compiles the repository's data-plane programs and
// prints their resource reports — the vendor-compiler view behind Table II
// and the §XI ablation.
//
// Usage:
//
//	p4auth-inspect                    # all programs, Tofino + BMv2
//	p4auth-inspect -target tofino
//	p4auth-inspect -words 8           # digest-width override (ablation)
//	p4auth-inspect -dump hula+p4auth  # one program's pseudo-P4
//
// Each subcommand prints one deterministic reference run and takes no
// flag or argument. The security-observability layer: a run over a
// two-switch fabric that prints every exported metric and the audit
// trail of security events:
//
//	p4auth-inspect metrics
//
// The self-healing fabric: a run over the Fig. 3 HULA topology where a
// one-sided port-key rollover is injected and the link supervisor
// detects, quarantines, repairs, and reinstates the link — printing each
// link's health state and the transition trail:
//
//	p4auth-inspect links
//
// The lease-fenced controller group: the failover runs of the group
// chaos harness — the active/standby pair's active killed mid-rollover
// and its split-brain lease lapse, and a 3-replica group riding out a
// store blip and fencing itself fail-safe in an outage — with the event
// trace and the invariant summary of each:
//
//	p4auth-inspect ha
//
// The hierarchical control plane: chaos runs of the per-pod shard groups
// and the global key broker under the WAN-partition and global-kill
// scenarios, printing the event trace and the invariant summary of each:
//
//	p4auth-inspect hierarchy
//
// Any other argument is a usage error (exit status 2).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"p4auth/internal/core"
	"p4auth/internal/hula"
	"p4auth/internal/pisa"
)

// subcommands are the reference runs, by name.
var subcommands = map[string]func(io.Writer) error{
	"metrics":   runMetrics,
	"links":     runLinks,
	"ha":        runHA,
	"hierarchy": runHierarchy,
}

// reportFlags are the resource report's options.
type reportFlags struct {
	target, dump string
	words        int
}

// newFlags declares the report's flags on a set of its own.
func newFlags(handling flag.ErrorHandling) (*flag.FlagSet, *reportFlags) {
	fs := flag.NewFlagSet("p4auth-inspect", handling)
	r := &reportFlags{}
	fs.StringVar(&r.target, "target", "", "tofino | bmv2 (default: both)")
	fs.IntVar(&r.words, "words", 1, "digest width in 32-bit words")
	fs.StringVar(&r.dump, "dump", "", "print a program's pseudo-P4 and exit: p4auth-shell | hula+p4auth | hula-baseline")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: p4auth-inspect [-target T] [-words N] [-dump PROGRAM]")
		fmt.Fprintln(fs.Output(), "       p4auth-inspect metrics | links | ha | hierarchy")
		fs.PrintDefaults()
	}
	return fs, r
}

// command checks a parsed command line and returns the subcommand it
// names, or nil for the resource report. A subcommand stands alone: a
// flag before it or an argument after it is an error, and so is a name
// that is not a subcommand.
func command(fs *flag.FlagSet, r *reportFlags) (func(io.Writer) error, error) {
	args := fs.Args()
	if len(args) == 0 {
		return nil, checkWords(r.words)
	}
	run, ok := subcommands[args[0]]
	switch {
	case !ok:
		return nil, fmt.Errorf("unknown subcommand %q", args[0])
	case len(args) > 1:
		return nil, fmt.Errorf("%s takes no argument, got %q", args[0], args[1])
	case fs.NFlag() > 0:
		return nil, fmt.Errorf("%s takes no flag", args[0])
	}
	return run, nil
}

func main() {
	fs, r := newFlags(flag.ExitOnError)
	_ = fs.Parse(os.Args[1:]) // ExitOnError: a bad flag exits 2 here
	run, err := command(fs, r)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		fs.Usage()
		os.Exit(2)
	}
	if run != nil {
		if err := run(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	profiles := []pisa.Profile{pisa.TofinoProfile(), pisa.BMv2Profile()}
	if r.target != "" {
		switch r.target {
		case "tofino":
			profiles = profiles[:1]
		case "bmv2":
			profiles = profiles[1:]
		default:
			fmt.Fprintf(os.Stderr, "unknown target %q\n", r.target)
			os.Exit(2)
		}
	}

	type prog struct {
		label string
		build func(profile pisa.Profile) (*pisa.Program, error)
	}
	progs := []prog{
		{"p4auth-shell", func(p pisa.Profile) (*pisa.Program, error) {
			kind := core.DigestCRC32
			if p.AllowExterns {
				kind = core.DigestHalfSipHash
			}
			cfg := core.DefaultConfig(16, kind)
			cfg.DigestWords = r.words
			pr := &pisa.Program{
				Name:         "p4auth_shell",
				Headers:      []*pisa.HeaderDef{core.PTypeHeader()},
				Parser:       []pisa.ParserState{{Name: pisa.ParserStart, Extract: core.HdrPType}},
				DeparseOrder: []string{core.HdrPType},
				Registers:    []*pisa.RegisterDef{{Name: "state", Width: 64, Entries: 128}},
			}
			return pr, core.AddToProgram(pr, cfg, core.Integration{Exposed: []string{"state"}})
		}},
		{"hula+p4auth", func(p pisa.Profile) (*pisa.Program, error) {
			params := hula.DefaultParams(1, 8)
			params.Secure = true
			pr, _, err := hula.BuildProgram(params)
			return pr, err
		}},
		{"hula-baseline", func(p pisa.Profile) (*pisa.Program, error) {
			params := hula.DefaultParams(1, 8)
			params.Secure = false
			pr, _, err := hula.BuildProgram(params)
			return pr, err
		}},
	}

	if r.dump != "" {
		for _, pg := range progs {
			if pg.label != r.dump {
				continue
			}
			p, err := pg.build(profiles[len(profiles)-1])
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Print(pisa.Dump(p))
			return
		}
		fmt.Fprintf(os.Stderr, "unknown program %q\n", r.dump)
		os.Exit(2)
	}

	for _, pf := range profiles {
		fmt.Printf("== target %s (stages %d, PHV %d bits, hash %d bits, SRAM %d blocks, TCAM %d blocks) ==\n",
			pf.Name, pf.Stages, pf.PHVBits, pf.HashBits, pf.SRAMBlocks, pf.TCAMBlocks)
		for _, pg := range progs {
			p, err := pg.build(pf)
			if err != nil {
				fmt.Printf("  %-14s build error: %v\n", pg.label, err)
				continue
			}
			c, err := pisa.Compile(p, pf)
			if err != nil {
				fmt.Printf("  %-14s DOES NOT FIT: %v\n", pg.label, err)
				continue
			}
			pct := c.Usage.Percent(pf)
			fmt.Printf("  %-14s stages %3d (+%d egress), passes %d | TCAM %5.1f%%  SRAM %5.1f%%  hash %5.1f%%  PHV %5.1f%%  hash-calls %d\n",
				pg.label, c.Usage.Stages, c.Usage.EgressStages, c.Usage.Passes,
				pct.TCAM, pct.SRAM, pct.Hash, pct.PHV, c.Usage.HashCalls)
		}
		fmt.Println()
	}
}

// checkWords rejects a digest width of no words.
func checkWords(words int) error {
	if words < 1 {
		return fmt.Errorf("-words %d: a digest has at least one word", words)
	}
	return nil
}

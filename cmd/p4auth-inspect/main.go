// Command p4auth-inspect compiles the repository's data-plane programs and
// prints their resource reports — the vendor-compiler view behind Table II
// and the §XI ablation.
//
// Usage:
//
//	p4auth-inspect                    # all programs, Tofino + BMv2
//	p4auth-inspect -target tofino
//	p4auth-inspect -words 8           # digest-width override (ablation)
//
// It also decodes the crash-safety artifacts the controller and switches
// persist (see PROTOCOL.md, "Crash recovery & persistence"):
//
//	p4auth-inspect snapshot <file-or-store-dir>...   # key/device snapshots
//	p4auth-inspect journal  <file-or-store-dir>...   # write-ahead entries
//
// And the security-observability layer: a deterministic reference run
// over a two-switch fabric that prints every exported metric and the
// audit trail of security events:
//
//	p4auth-inspect metrics
//
// And the self-healing fabric: a deterministic reference run over the
// Fig. 3 HULA topology where a one-sided port-key rollover is injected
// and the link supervisor detects, quarantines, repairs, and reinstates
// the link — printing each link's health state and the transition trail:
//
//	p4auth-inspect links
//
// And the lease-fenced controller group: decode persisted PALS lease
// records, or print the deterministic failover reference runs of the
// group chaos harness — the active/standby pair's active killed
// mid-rollover and its split-brain lease lapse, and a 3-replica group
// riding out a store blip and fencing itself fail-safe in an outage —
// with the event trace and the invariant summary of each:
//
//	p4auth-inspect ha                      # reference failover runs
//	p4auth-inspect ha <store-dir>/ha/lease # decode a lease record
//
// And the hierarchical control plane: deterministic chaos reference
// runs of the per-pod shard groups and the global key broker under the
// WAN-partition and global-kill scenarios, printing the event trace and
// the invariant summary of each:
//
//	p4auth-inspect hierarchy
package main

import (
	"flag"
	"fmt"
	"os"

	"p4auth/internal/core"
	"p4auth/internal/hula"
	"p4auth/internal/pisa"
)

func main() {
	if len(os.Args) > 1 && (os.Args[1] == "snapshot" || os.Args[1] == "journal") {
		if err := runState(os.Args[1], os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "metrics" {
		if err := runMetrics(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "links" {
		if err := runLinks(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "hierarchy" {
		if err := runHierarchy(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "ha" {
		if err := runHA(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	target := flag.String("target", "", "tofino | bmv2 (default: both)")
	words := flag.Int("words", 1, "digest width in 32-bit words")
	dump := flag.String("dump", "", "print a program's pseudo-P4 and exit: p4auth-shell | hula+p4auth | hula-baseline")
	flag.Parse()
	if err := checkWords(*words); err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}

	profiles := []pisa.Profile{pisa.TofinoProfile(), pisa.BMv2Profile()}
	if *target != "" {
		switch *target {
		case "tofino":
			profiles = profiles[:1]
		case "bmv2":
			profiles = profiles[1:]
		default:
			fmt.Fprintf(os.Stderr, "unknown target %q\n", *target)
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
			cfg.DigestWords = *words
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

	if *dump != "" {
		for _, pg := range progs {
			if pg.label != *dump {
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
		fmt.Fprintf(os.Stderr, "unknown program %q\n", *dump)
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

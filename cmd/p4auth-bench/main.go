// Command p4auth-bench regenerates the paper's evaluation artifacts: every
// table and figure of §IX plus the §XI digest-width ablation. Its full
// output is internal/bench/testdata/reports.golden, byte for byte.
//
// Usage:
//
//	p4auth-bench                  # run everything, in paper order
//	p4auth-bench -exp fig17       # one experiment
//	p4auth-bench -exp fig16,fig21 # a subset
//	p4auth-bench -list            # list experiment ids
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"p4auth/internal/bench"
)

func main() {
	expFlag := flag.String("exp", "", "comma-separated experiment ids (default: all)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	runners := bench.All()
	if *list {
		for _, r := range runners {
			fmt.Println(r.ID)
		}
		return
	}

	want := map[string]bool{}
	if *expFlag != "" {
		for _, id := range strings.Split(*expFlag, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}

	ran := 0
	failed := 0
	for _, r := range runners {
		if len(want) > 0 && !want[r.ID] {
			continue
		}
		ran++
		rep, err := r.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.ID, err)
			failed++
			continue
		}
		fmt.Println(rep)
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiments matched %q (try -list)\n", *expFlag)
		os.Exit(2)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// Command p4auth-bench regenerates the paper's evaluation artifacts: every
// table and figure of §IX plus the §XI digest-width ablation.
//
// Usage:
//
//	p4auth-bench                  # run everything, in paper order
//	p4auth-bench -exp fig17       # one experiment
//	p4auth-bench -exp fig16,fig21 # a subset
//	p4auth-bench -list            # list experiment ids
//	p4auth-bench -save FILE       # write machine-readable BENCH json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"p4auth/internal/bench"
)

func main() {
	expFlag := flag.String("exp", "", "comma-separated experiment ids (default: all)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	save := flag.String("save", "", "write micro-bench + pipelined-throughput JSON to this file and exit")
	matrix := flag.String("matrix", "", "write the fleet survival-matrix + wall-clock-throughput JSON to this file and exit")
	hier := flag.String("hierarchy", "", "write the hierarchical control-plane JSON (cross-pod establishment + pod writes) to this file and exit")
	flag.Parse()

	if *hier != "" {
		bj, err := bench.SaveHierarchyJSON(*hier, time.Now().UTC().Format("2006-01-02"))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, r := range bj.Hierarchy {
			fmt.Printf("hier pods=%d links=%-2d spike=%-5v %6.2f ms/link %7.1f ms total %10.0f writes/s\n",
				r.Pods, r.CrossLinks, r.WANSpike, r.EstablishMsPerLink, r.EstablishMsTotal, r.WritesPerSec)
		}
		fmt.Printf("wrote %s\n", *hier)
		return
	}

	if *matrix != "" {
		bj, err := bench.SaveMatrixJSON(*matrix, time.Now().UTC().Format("2006-01-02"), bench.DefaultMatrixOpts())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		m := bj.Matrix
		fmt.Printf("matrix k=%d seed=%#x: %d/%d cells survived\n", m.K, m.Seed, m.Survived, m.Total)
		for _, r := range m.Tput {
			fmt.Printf("tput %-10s k=%d %10.0f ops/s %9.1f ms wall score %.2f\n",
				r.App, r.K, r.OpsPerSec, r.WallMs, r.Score)
		}
		fmt.Printf("wrote %s\n", *matrix)
		return
	}

	if *save != "" {
		bj, err := bench.SaveBenchJSON(*save, time.Now().UTC().Format("2006-01-02"))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if e := bj.Env; e != nil {
			fmt.Printf("env    GOMAXPROCS=%d NumCPU=%d %s\n", e.GoMaxProcs, e.NumCPU, e.GoVersion)
		}
		for _, m := range bj.Micro {
			fmt.Printf("%-24s %12.1f ns/op %8d B/op %6d allocs/op\n",
				m.Name, m.NsPerOp, m.BytesPerOp, m.AllocsPerOp)
		}
		for _, r := range bj.Fig19Pipe {
			fmt.Printf("fig19p window %-3d %12.0f req/s %8.2fx\n", r.Window, r.Tput, r.Speedup)
		}
		if f := bj.Fleet; f != nil {
			fmt.Printf("fleet  %d switches w%-3d %12.0f writes/s (serial %.0f/s) failover %.1fms epoch %d\n",
				f.Switches, f.Window, f.WritesPerSec, f.SerialPerSec, f.FailoverMs, f.FailoverEpoch)
		}
		for _, g := range bj.Group {
			fmt.Printf("group  n=%d %d switches: rolling-kill failover %.1fms chained %d waitouts %d epoch %d\n",
				g.Replicas, g.Switches, g.FailoverMs, g.Chained, g.WaitOuts, g.Epoch)
		}
		fmt.Printf("wrote %s\n", *save)
		return
	}

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

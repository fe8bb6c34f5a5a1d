// Command benchmark is this repository's benchmark: six workloads on two
// clocks, with a layer ladder from crypto to fleet. See README.md beside
// this file and BENCHMARK.json at the repository root.
//
//	go run ./benchmark --workload cdp_serial --seed 1 --seconds 15 --trace 0
//
// prints the end-to-end metrics of one workload; --trace 1 runs the
// separate traced pass and prints the per-layer metrics. Without
// --workload every workload runs in turn.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// metric is one reported value; the last line of standard output carries
// them keyed by name.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is a result with what is needed to compare it later; -out
// appends one per run.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	Seconds  int    `json:"seconds"`
	Env      env    `json:"env"`
	result
}

const defaultSeed = 1 // the held-out seed for checking a claim is 20250623

// parProbe is set by parprobe.go, which only the parprobe build tag
// compiles: it is the one file that names pisa's ingress workers and
// netsim's shards, so that a later change may delete either without
// touching the benchmark.
var parProbe func(seed uint64, budget time.Duration) error

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all, one after the other)")
		seed    = flag.Uint64("seed", defaultSeed, "seed for every generated input")
		seconds = flag.Int("seconds", 15, "length of the measured phase")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
		smoke   = flag.Bool("smoke", false, "one 100 ms round per workload, both passes (what the test runs)")
		out     = flag.String("out", "", "append each run's record to this file as a JSON line")
		compare = flag.Bool("compare", false, "compare two -out files given as arguments: base then change")
		par     = flag.Bool("parprobe", false, "parallel probe: workers=2 and shards=2 against the default (build with -tags parprobe)")
	)
	flag.Parse()
	if *par {
		if parProbe == nil {
			fatal(fmt.Errorf("-parprobe needs a build with -tags parprobe"))
		}
		if err := parProbe(*seed, time.Duration(*seconds)*time.Second); err != nil {
			fatal(err)
		}
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two files"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	budget := time.Duration(*seconds) * time.Second
	passes := []int{*trace}
	if *smoke {
		budget, passes = 100*time.Millisecond, []int{0, 1}
	}
	if budget <= 0 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("need -seconds >= 1 and -trace 0 or 1"))
	}
	run := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		run = []workload{w}
	}
	for _, w := range run {
		for _, pass := range passes {
			res, err := runPass(w, *seed, budget, pass, *smoke)
			if err != nil {
				// A failed output check is a failed run: no result line.
				fatal(fmt.Errorf("%s: %w", w.name, err))
			}
			if *out != "" {
				rec := record{w.name, *seed, pass, *seconds, hostEnv(), res}
				if err := appendRecord(*out, rec); err != nil {
					fatal(err)
				}
			}
			line, err := json.Marshal(res)
			if err != nil {
				fatal(err)
			}
			fmt.Println(string(line))
		}
	}
}

func runPass(w workload, seed uint64, budget time.Duration, pass int, smoke bool) (result, error) {
	if pass == 1 {
		return runTraced(w, seed, budget, smoke)
	}
	return runMeasured(w, seed, budget, smoke)
}

func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(rec)
	if err == nil {
		_, err = f.Write(append(b, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

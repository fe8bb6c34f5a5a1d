package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// spec mirrors BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// repoRoot is the working directory of a run and, under go test, its
// parent: wherever BENCHMARK.json is.
func repoRoot() string {
	if _, err := os.Stat("BENCHMARK.json"); err != nil {
		if _, err := os.Stat(filepath.Join("..", "BENCHMARK.json")); err == nil {
			return ".."
		}
	}
	return "."
}

func loadSpec() (spec, error) {
	var s spec
	b, err := os.ReadFile(filepath.Join(repoRoot(), "BENCHMARK.json"))
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal(b, &s)
}

// exact lists the per-layer metrics that are counts or modeled (virtual)
// time: deterministic per seed, so two commits must agree on them to
// exactTol on every seed both were run on. A change that only speeds up
// the simulator must leave all of them alone.
var exact = map[string]bool{
	"run.modeled_ops_per_s": true, "run.modeled_rct_us_p50": true, "run.modeled_rct_us_p99": true,
	"run.modeled_auth_overhead_ratio": true, "run.failed_share": true, "run.forged_applied": true,
	"controller.modeled_write_ops_per_s": true, "controller.kmp_msgs_per_rollover": true,
	"controller.kmp_bytes_per_rollover": true, "controller.kmp_modeled_rtt_us": true,
	"pisa.modeled_cost_ns_per_pkt": true, "pisa.stages_per_pass": true,
	"netsim.events_per_delivered_pkt": true, "hula.probes_per_delivered_pkt": true,
	"fleet.links_keyed": true, "fleet.delivered_share": true, "fleet.alerts": true,
}

const exactTol = 0.001

type runKey struct {
	workload, metric string
}

// readRecords groups a -out file's values by workload and metric; bySeed
// keeps the exact metrics apart per seed.
func readRecords(path string) (vals map[runKey][]float64, bySeed map[runKey]map[uint64]float64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	vals, bySeed = map[runKey][]float64{}, map[runKey]map[uint64]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		for name, m := range r.Metrics {
			k := runKey{r.Workload, name}
			vals[k] = append(vals[k], m.Value)
			if exact[name] {
				if bySeed[k] == nil {
					bySeed[k] = map[uint64]float64{}
				}
				bySeed[k][r.Seed] = m.Value
			}
		}
	}
	return vals, bySeed, sc.Err()
}

// compareFiles applies the benchmark's own rule to two sets of runs and
// prints one verdict per end-to-end metric and workload: regressed when
// the change's median is worse than the base's by more than the bound;
// unresolved when the base's own spread (quartile distance over median)
// is wider than the bound, unless every run of the change beats every run
// of the base; ok otherwise. Exact per-layer metrics are held to exactTol
// seed by seed. It reports whether anything regressed.
func compareFiles(w io.Writer, basePath, changePath string) (bool, error) {
	sp, err := loadSpec()
	if err != nil {
		return false, err
	}
	base, baseSeed, err := readRecords(basePath)
	if err != nil {
		return false, err
	}
	change, changeSeed, err := readRecords(changePath)
	if err != nil {
		return false, err
	}
	regressed := false
	for _, wl := range sp.Workloads {
		for _, em := range sp.EndToEnd {
			k := runKey{wl.Name, em.Name}
			b, c := base[k], change[k]
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			verdict := judge(b, c, em)
			regressed = regressed || verdict == "regressed"
			fmt.Fprintf(w, "%-12s %-16s base %.6g (n=%d, spread %.3f)  change %.6g (n=%d)  bound %.2f  %s\n",
				wl.Name, em.Name, median(b), len(b), spread(b), median(c), len(c), em.Bound, verdict)
		}
	}
	var keys []runKey
	for k := range baseSeed {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	for _, k := range keys {
		verdict, shared := "ok", 0
		for seed, bv := range baseSeed[k] {
			cv, ok := changeSeed[k][seed]
			if !ok {
				continue
			}
			shared++
			if math.Abs(cv-bv) > exactTol*math.Abs(bv) {
				verdict = fmt.Sprintf("regressed (seed %d: %.6g -> %.6g)", seed, bv, cv)
				regressed = true
			}
		}
		if shared > 0 {
			fmt.Fprintf(w, "%-12s %-36s exact on %d shared seeds  %s\n", k.workload, k.metric, shared, verdict)
		}
	}
	return regressed, nil
}

func spread(vs []float64) float64 {
	return (quantile(vs, 0.75) - quantile(vs, 0.25)) / math.Abs(median(vs))
}

func judge(base, change []float64, em specMetric) string {
	sign := 1.0 // positive worse = the value went up
	if em.Better == "higher" {
		sign = -1
	}
	worse := sign * (median(change) - median(base)) / math.Abs(median(base))
	if worse > em.Bound {
		return "regressed"
	}
	if spread(base) <= em.Bound {
		return "ok"
	}
	// Too noisy to call unchanged, unless the change wins every pairing.
	for _, c := range change {
		for _, b := range base {
			if sign*(c-b) >= 0 {
				return "unresolved"
			}
		}
	}
	return "ok"
}

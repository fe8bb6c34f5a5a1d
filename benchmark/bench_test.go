package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs one 100 ms round of every workload through both passes
// and holds what they print to BENCHMARK.json: every metric named there,
// exactly once, finite, with the unit it declares, and nothing else.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	for pass, want := range [][]specMetric{sp.EndToEnd, sp.PerLayer} {
		table := endToEnd
		if pass == 1 {
			table = perLayer
		}
		if len(table) != len(want) {
			t.Fatalf("pass %d: BENCHMARK.json lists %d metrics, the benchmark's table %d", pass, len(want), len(table))
		}
		for i, u := range table {
			if want[i].Name != u.name || want[i].Unit != u.unit || !metricName.MatchString(u.name) {
				t.Errorf("pass %d metric %d: BENCHMARK.json has %s [%s], the benchmark %s [%s]",
					pass, i, want[i].Name, want[i].Unit, u.name, u.unit)
			}
		}
	}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name {
			t.Fatalf("workload %d: BENCHMARK.json has %s, the benchmark %s", i, sp.Workloads[i].Name, w.name)
		}
		for pass, want := range [][]specMetric{sp.EndToEnd, sp.PerLayer} {
			res, err := runPass(w, defaultSeed, 100*time.Millisecond, pass, true)
			if err != nil {
				t.Fatalf("%s pass %d: %v", w.name, pass, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s pass %d: correct=%v attempted=%d failed=%d", w.name, pass, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s pass %d: %d metrics, want %d", w.name, pass, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s pass %d: metric %s missing", w.name, pass, m.Name)
				} else if got.Unit != m.Unit || finite(m.Name, got.Value) != nil {
					t.Errorf("%s pass %d: %s = %v [%s], want a finite value in %s", w.name, pass, m.Name, got.Value, got.Unit, m.Unit)
				}
				if pass == 0 && ok && got.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.name, m.Name)
				}
			}
		}
	}
}

// TestCompare feeds -compare three synthetic pairs: unchanged, slower by
// more than the bound, and a base too noisy to call.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ops ...float64) string {
		path := filepath.Join(dir, name)
		for i, v := range ops {
			rec := record{Workload: "cdp_serial", Seed: uint64(i), result: result{
				Correct: true, Attempted: 1,
				Metrics: map[string]metric{
					"wall_ops_per_s":        {v, "1/s"},
					"run.modeled_ops_per_s": {1297.82, "1/s"},
				},
			}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	steady := write("steady", 100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	noisy := write("noisy", 60, 140, 70, 130, 100, 50, 150, 100, 80, 120)
	slow := write("slow", 60, 61, 59, 60, 62, 58, 60, 61, 59, 60)
	for _, tc := range []struct {
		base, change, want string
		regressed          bool
	}{
		{steady, steady, " ok", false},
		{steady, slow, " regressed", true},
		{noisy, steady, " unresolved", false},
	} {
		var out bytes.Buffer
		regressed, err := compareFiles(&out, tc.base, tc.change)
		if err != nil {
			t.Fatal(err)
		}
		line := strings.SplitN(out.String(), "\n", 2)[0]
		if regressed != tc.regressed || !strings.HasSuffix(line, tc.want) {
			t.Errorf("%s vs %s: regressed=%v, first line %q, want suffix %q", filepath.Base(tc.base), filepath.Base(tc.change), regressed, line, tc.want)
		}
		if !strings.Contains(out.String(), "run.modeled_ops_per_s") {
			t.Errorf("exact metrics not compared:\n%s", out.String())
		}
	}
}

// TestResultLine pins the shape of the line a driver parses.
func TestResultLine(t *testing.T) {
	b, err := json.Marshal(result{Correct: true, Attempted: 1, Metrics: map[string]metric{"setup_s": {0.5, "s"}}})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"correct":true,"attempted":1,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}`
	if string(b) != want {
		t.Errorf("result line %s, want %s", b, want)
	}
	if _, err := os.Stat(filepath.Join(repoRoot(), "BENCHMARK.json")); err != nil {
		t.Error(err)
	}
}

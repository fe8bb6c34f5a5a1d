package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// unit names one metric and its unit. The two tables below are the names
// BENCHMARK.json lists; bench_test.go holds them to it.
type unit struct{ name, unit string }

// endToEnd is what --trace 0 prints: wall-clock costs a user of the
// library or of the fleet matrix pays, each with a bound in BENCHMARK.json.
var endToEnd = []unit{
	{"setup_s", "s"},
	{"wall_ops_per_s", "1/s"},
	{"cpu_ns_per_op", "ns"},
	{"live_heap_mb", "MB"},
}

// perLayer is what --trace 1 prints. run.* and trace.* belong to the
// workload as a whole; every other prefix is an internal/ package. A
// metric a workload does not exercise reads 0 on it.
var perLayer = []unit{
	// The workload as a whole, from an untraced round of the traced pass.
	{"run.allocs_per_op", "count"},
	{"run.bytes_per_op", "B"},
	{"run.modeled_ops_per_s", "1/s"},
	{"run.modeled_rct_us_p50", "us"},
	{"run.modeled_rct_us_p99", "us"},
	{"run.auth_overhead_ratio", "ratio"},
	{"run.modeled_auth_overhead_ratio", "ratio"},
	{"run.failed_share", "ratio"},
	{"run.forged_applied", "count"},
	{"run.wall_chunk_ns_p90", "ns"},
	{"run.wall_chunks", "count"},
	{"run.trace_overhead_ratio", "ratio"},
	{"run.unaccounted_ns", "ns"},
	// Self time per operation from this workload's spans.
	{"trace.controller_self_ns_per_op", "ns"},
	{"trace.switchos_self_ns_per_op", "ns"},
	{"trace.pisa_ns_per_op", "ns"},
	{"trace.netsim_event_ns_per_op", "ns"},
	{"trace.spans_per_op", "count"},
	// Ladder rungs and the program's own counters, layer by layer.
	{"crypto.halfsiphash_ns", "ns"},
	{"crypto.crc32_ns", "ns"},
	{"crypto.sign_batch32_ns_per_item", "ns"},
	{"crypto.dh_public_ns", "ns"},
	{"crypto.dh_shared_ns", "ns"},
	{"crypto.kdf_derive_ns", "ns"},
	{"core.sign_ns", "ns"},
	{"core.verify_ns", "ns"},
	{"core.encode_ns", "ns"},
	{"core.decode_ns", "ns"},
	{"core.allocs_per_msg", "count"},
	{"pisa.process_ns_per_pkt", "ns"},
	{"pisa.process_read_ns_per_pkt", "ns"},
	{"pisa.process_probe_ns_per_pkt", "ns"},
	{"pisa.process_batch32_ns_per_pkt", "ns"},
	{"pisa.process_insecure_ns_per_pkt", "ns"},
	{"pisa.reject_ns_per_pkt", "ns"},
	{"pisa.allocs_per_pkt", "count"},
	{"pisa.modeled_cost_ns_per_pkt", "ns"},
	{"pisa.stages_per_pass", "count"},
	{"pisa.verify_ok", "count"},
	{"pisa.verify_fail", "count"},
	{"pisa.replay_drop", "count"},
	{"switchos.packetout_ns", "ns"},
	{"switchos.packetout_read_ns", "ns"},
	{"switchos.packetout_self_ns", "ns"},
	{"switchos.packetout_batch32_ns_per_pkt", "ns"},
	{"switchos.network_batch32_ns_per_pkt", "ns"},
	{"switchos.cache_hit_ns", "ns"},
	{"switchos.cache_hits", "count"},
	{"switchos.allocs_per_pkt", "count"},
	{"controller.write_ns", "ns"},
	{"controller.read_ns", "ns"},
	{"controller.write_self_ns", "ns"},
	{"controller.read_self_ns", "ns"},
	{"controller.batch32_self_ns_per_op", "ns"},
	{"controller.wal_ns_per_op", "ns"},
	{"controller.modeled_write_ops_per_s", "1/s"},
	{"controller.msgs_per_op", "count"},
	{"controller.retries_per_op", "count"},
	{"controller.alerts_retained", "count"},
	{"controller.kmp_local_update_ns", "ns"},
	{"controller.kmp_port_update_ns", "ns"},
	{"controller.kmp_msgs_per_rollover", "count"},
	{"controller.kmp_bytes_per_rollover", "B"},
	{"controller.kmp_modeled_rtt_us", "us"},
	{"statestore.save_ns", "ns"},
	{"statestore.saves_per_op", "count"},
	{"obs.counter_inc_ns", "ns"},
	{"obs.hist_observe_ns", "ns"},
	{"obs.audit_events_per_op", "count"},
	{"obs.audit_evicted", "count"},
	{"netsim.event_ns", "ns"},
	{"netsim.send_ns_per_pkt", "ns"},
	{"netsim.fabric_event_ns", "ns"},
	{"netsim.events_per_delivered_pkt", "count"},
	{"netsim.fabric_event_chunk_ns_p90", "ns"},
	{"hula.switch_probe_ns", "ns"},
	{"hula.probes_per_delivered_pkt", "count"},
	{"fleet.build_k4_s", "s"},
	{"fleet.links_keyed", "count"},
	{"fleet.delivered_share", "ratio"},
	{"fleet.alerts", "count"},
}

// tracedShare is the part of the budget the traced pass spends on its
// rounds; the ladder on top is sized in calls, not seconds.
const tracedShare = 0.75

// runTraced is the separate traced pass: every per-layer metric of one
// workload. It is never the source of an end-to-end number.
func runTraced(w workload, seed uint64, budget time.Duration, smoke bool) (result, error) {
	m := make(map[string]float64, len(perLayer))

	// Three copies of the workload on the same seed take turns chunk by
	// chunk: untraced (the reference), traced (spans and counts on) and,
	// where there is one, the unprotected twin.
	tr := newTracer()
	var insts []instance
	for _, o := range []setupOpts{{}, {tr: tr}, {twin: true}} {
		if o.twin && !w.hasTwin {
			continue
		}
		in, err := w.setup(seed, o)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		insts = append(insts, in)
	}
	rs, err := measure(w, time.Duration(tracedShare*float64(budget)), smoke, nil, insts...)
	if err != nil {
		return result{}, err
	}
	plain, traced := rs[0], rs[1]
	tot := totals(plain.chunks)
	ns := perOp(plain.chunks, wallOf)
	plainNs := typical(ns)
	m["run.allocs_per_op"] = float64(tot.mallocs) / float64(tot.ops)
	m["run.bytes_per_op"] = float64(tot.bytes) / float64(tot.ops)
	m["run.modeled_ops_per_s"] = float64(tot.ops) / tot.modeled.Seconds()
	m["run.wall_chunk_ns_p90"] = quantile(ns, 0.90)
	m["run.wall_chunks"] = float64(len(ns))
	if w.hasTwin {
		tt := totals(rs[2].chunks)
		m["run.auth_overhead_ratio"] = plainNs / typical(perOp(rs[2].chunks, wallOf))
		m["run.modeled_auth_overhead_ratio"] = (tot.modeled.Seconds() / float64(tot.ops)) /
			(tt.modeled.Seconds() / float64(tt.ops))
	}
	if err := checkTrajectory(w, plain.counts); err != nil {
		return result{}, err
	}

	c := traced.counts
	ops := float64(totals(traced.chunks).ops)
	m["run.trace_overhead_ratio"] = typical(perOp(traced.chunks, wallOf)) / plainNs
	m["run.failed_share"] = float64(c.failed) / float64(c.attempted)
	m["run.forged_applied"] = float64(c.forged)
	rct := make([]float64, len(c.rct))
	for i, d := range c.rct {
		rct[i] = float64(d.Nanoseconds()) / 1e3
	}
	if len(rct) > 0 {
		m["run.modeled_rct_us_p50"] = quantile(rct, 0.50)
		m["run.modeled_rct_us_p99"] = quantile(rct, 0.99)
	}
	spans := 0
	for name, st := range tr.total {
		spans += st.n
		switch name {
		case "switchos.down", "switchos.up":
			m["trace.switchos_self_ns_per_op"] += float64(st.ns) / ops
		case "pisa.pipeline":
			m["trace.pisa_ns_per_op"] += float64(st.ns) / ops
		case "netsim.event":
			m["trace.netsim_event_ns_per_op"] += float64(st.ns) / ops
		}
	}
	for name, st := range tr.self {
		// Roots are the workload's calls into the topmost layer it uses;
		// what their children do not cover is that layer's own time.
		if strings.HasPrefix(name, "switchos.") {
			m["trace.switchos_self_ns_per_op"] += float64(st.ns) / ops
		} else {
			m["trace.controller_self_ns_per_op"] += float64(st.ns) / ops
		}
	}
	m["trace.spans_per_op"] = float64(spans) / ops
	insts[1].layers(m)
	path, err := tr.write(filepath.Join(repoRoot(), "benchmark", "out"), w.name, seed)
	if err != nil {
		return result{}, fmt.Errorf("trace file: %w", err)
	}

	z := fullLadder
	if smoke {
		z = smokeLadder
	}
	if err := ladder(z, seed, m); err != nil {
		return result{}, err
	}

	fmt.Printf("%s seed=%d traced pass: %d chunks per copy, %d spans (%d kept in %s)\n",
		w.name, seed, len(plain.chunks), spans, len(tr.spans), path)
	return finishResult(w, perLayer, m, c)
}

// Trajectory cross-check: the modeled clock must still tell the story the
// checked-in artifact tells. The reference rows are read from the
// artifact, not copied here, so a change that re-records the trajectory
// on purpose carries the benchmark with it; when the artifact is gone the
// check is skipped and says so.
const (
	trajectoryFile = "BENCH_2026-08-07.json"
	trajectoryTol  = 0.001
)

func checkTrajectory(w workload, c counts) error {
	window, ok := map[string]int{"cdp_serial": 1, "cdp_window32": cdpWindow}[w.name]
	if !ok {
		return nil
	}
	got := float64(c.writes) / c.writeModeled.Seconds()
	var art struct {
		Rows []struct {
			Window int     `json:"window"`
			Tput   float64 `json:"requests_per_sec"`
		} `json:"fig19_pipelined"`
	}
	b, err := os.ReadFile(filepath.Join(repoRoot(), trajectoryFile))
	if err != nil {
		fmt.Printf("%s trajectory: %s not found, cross-check skipped\n", w.name, trajectoryFile)
		return nil
	}
	if err := json.Unmarshal(b, &art); err != nil {
		return fmt.Errorf("%s: %w", trajectoryFile, err)
	}
	for _, row := range art.Rows {
		if row.Window != window {
			continue
		}
		fmt.Printf("%s trajectory: modeled %.2f/s, %s fig19_pipelined window %d says %.2f/s\n",
			w.name, got, trajectoryFile, window, row.Tput)
		if math.Abs(got-row.Tput) > trajectoryTol*row.Tput {
			return fmt.Errorf("modeled write throughput %.2f/s left the checked-in trajectory (%.2f/s at window %d)",
				got, row.Tput, window)
		}
		return nil
	}
	return fmt.Errorf("%s has no fig19_pipelined row for window %d", trajectoryFile, window)
}

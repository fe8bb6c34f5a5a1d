package bench

import (
	"fmt"
	"time"

	"p4auth/internal/hierarchy"
)

// Hierarchical control-plane benchmark: cross-pod key-establishment
// latency through the global broker and aggregate authenticated write
// throughput across the pod tiers, at k=4 and k=8, with and without a
// WAN latency spike on every pod<->global link. All times are virtual:
// the WAN delay, the broker's retry budget, and the C-DP link latency
// are the modeled costs, so the numbers isolate protocol round trips,
// not host speed.

// hierarchySeed fixes every nonce and key so the rows are comparable
// across commits.
const hierarchySeed = 0x41E12A

// hierarchySpike is the injected one-way WAN latency for the "with
// injection" arms — large enough to show in the establishment numbers,
// small enough that every broker RPC still lands inside its per-try
// budget (so the rows measure latency, not retries).
const hierarchySpike = 300 * time.Microsecond

// hierarchyWrites is the per-pod authenticated write count of the
// throughput phase.
const hierarchyWrites = 256

// hierarchyRow measures one (pods, spike) arm as a report row.
func hierarchyRow(pods int, spike bool) ([]string, error) {
	h, err := hierarchy.Build(hierarchy.Config{Seed: hierarchySeed, Pods: pods})
	if err != nil {
		return nil, fmt.Errorf("bench: hierarchy pods=%d: %w", pods, err)
	}
	if spike {
		for p := 0; p < pods; p++ {
			l := h.WANLink(p)
			a, b := l.Ends()
			for _, end := range []string{a, b} {
				if err := l.AddLatencySpike(end, 0, time.Hour, hierarchySpike); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := h.Bootstrap(); err != nil {
		return nil, err
	}

	t0 := h.Sim.Now()
	if err := h.EstablishAllCross(); err != nil {
		return nil, fmt.Errorf("bench: establish pods=%d spike=%v: %w", pods, spike, err)
	}
	est := h.Sim.Now() - t0
	nLinks := len(h.CrossLinks())

	// Aggregate write throughput: every pod active hammers its first edge
	// switch's demo register over the authenticated C-DP. Pods are
	// independent tiers serving concurrently, so the aggregate rate is
	// total writes over the slowest pod's modeled serial time (the same
	// wall-time convention as the sharded fleet bench).
	writes := 0
	var wall time.Duration
	for _, p := range h.Pods {
		act := p.Group.Active()
		if act == nil {
			return nil, fmt.Errorf("bench: pod %d lost its active mid-run", p.ID)
		}
		sw := fmt.Sprintf("e%d_0", p.ID)
		var podWall time.Duration
		for i := 0; i < hierarchyWrites; i++ {
			lat, err := act.Controller().WriteRegister(sw, "lat", uint32(i%8), uint64(i))
			if err != nil {
				return nil, fmt.Errorf("bench: pod %d write %d: %w", p.ID, i, err)
			}
			podWall += lat
			writes++
		}
		if podWall > wall {
			wall = podWall
		}
	}
	total := float64(est) / float64(time.Millisecond)
	spikeCell := "off"
	if spike {
		spikeCell = fmt.Sprintf("+%.0fus", float64(hierarchySpike)/float64(time.Microsecond))
	}
	return []string{
		fmt.Sprintf("%d", pods),
		fmt.Sprintf("%d", nLinks),
		spikeCell,
		fmt.Sprintf("%.2fms", total/float64(nLinks)),
		fmt.Sprintf("%.1fms", total),
		fmt.Sprintf("%.0f", float64(writes)/wall.Seconds()),
	}, nil
}

// HierarchyBench regenerates the hierarchical control-plane report.
func HierarchyBench() (*Report, error) {
	rep := &Report{
		ID:    "Hierarchy",
		Title: "Two-tier control plane: cross-pod key establishment + aggregate pod writes (virtual time)",
		Columns: []string{
			"pods", "cross links", "wan spike", "establish/link", "establish total", "agg writes/s",
		},
		Notes: []string{
			"establish = fenced grant RPC + split exchange relayed through the global broker over the WAN star",
			"spike adds one-way WAN latency inside every RPC's per-try budget: pure latency, zero retries",
			"aggregate writes run on the intra-pod C-DP and are unaffected by WAN conditions",
		},
	}
	for _, pods := range []int{4, 8} {
		for _, spike := range []bool{false, true} {
			row, err := hierarchyRow(pods, spike)
			if err != nil {
				return nil, err
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	return rep, nil
}

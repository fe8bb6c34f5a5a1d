package bench

import (
	"fmt"
	"time"

	"p4auth/internal/controller"
	"p4auth/internal/crypto"
)

// Pipelined Fig. 19 variant: authenticated write throughput through the
// windowed C-DP transport. The paper measures sequential requests —
// every write pays the switch agent's PacketIO dispatch and a full RTT.
// The batch engine amortizes that dispatch across a window of in-flight
// signed requests (one agent transaction carries the whole window), so
// throughput scales with the window until per-packet costs dominate.

// The sweep writes fig19pRequests times per window: the serial baseline
// (window 1), then 2..fig19pMaxWindow in octaves.
const (
	fig19pRequests  = 512
	fig19pMaxWindow = 32
)

// pipelinedFixture builds one P4Auth switch with an established local key
// for throughput runs.
func pipelinedFixture() (*controller.Controller, error) {
	c := controller.New(crypto.NewSeededRand(0xF19))
	return c, addSwitch(c, "pa", false, 0)
}

// pipelinedWriteTput measures authenticated write throughput (requests/s
// of modeled time) for one window size: requests go through the batch
// engine in window-sized batches, serial time through WriteRegister.
func pipelinedWriteTput(c *controller.Controller, requests, window int) (float64, error) {
	var total time.Duration
	if window <= 1 {
		for i := 0; i < requests; i++ {
			lat, err := c.WriteRegister("pa", benchReg, uint32(i%1024), uint64(i))
			if err != nil {
				return 0, err
			}
			total += lat
		}
	} else {
		writes := make([]controller.RegWrite, 0, window)
		for done := 0; done < requests; {
			writes = writes[:0]
			for len(writes) < window && done+len(writes) < requests {
				i := done + len(writes)
				writes = append(writes, controller.RegWrite{
					Register: benchReg, Index: uint32(i % 1024), Value: uint64(i),
				})
			}
			br, err := c.WriteRegisterBatch("pa", window, writes)
			if err != nil {
				return 0, err
			}
			total += br.Lat
			done += len(writes)
		}
	}
	if total <= 0 {
		return 0, fmt.Errorf("bench: non-positive total latency")
	}
	return float64(requests) * float64(time.Second) / float64(total), nil
}

// Fig19Pipelined regenerates the pipelined variant of Fig. 19:
// authenticated write throughput versus in-flight window size, with the
// speedup over the serial baseline.
func Fig19Pipelined() (*Report, error) {
	c, err := pipelinedFixture()
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:      "Fig 19 (pipelined)",
		Title:   "Authenticated write throughput vs in-flight window",
		Columns: []string{"window", "write tput", "speedup"},
	}
	var serial float64
	for w := 1; w <= fig19pMaxWindow; w *= 2 {
		tput, err := pipelinedWriteTput(c, fig19pRequests, w)
		if err != nil {
			return nil, err
		}
		if w == 1 {
			serial = tput
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", w),
			fmt.Sprintf("%.0f/s", tput),
			fmt.Sprintf("%.2fx", tput/serial),
		})
	}
	rep.Notes = append(rep.Notes,
		"window 1 = serial P4Auth writes; the window amortizes the agent's per-transaction PacketIO dispatch",
		"acceptance bar: >= 3x at window 8",
	)
	return rep, nil
}

package bench

import (
	"fmt"
	"time"

	"p4auth/internal/controller"
	"p4auth/internal/crypto"
)

// Fig. 20 mirrors the paper's setup (local controller, directly attached
// switches): one-way controller-switch and switch-switch link latencies,
// and the samples each mean is over.
const (
	fig20CDPLat  = 50 * time.Microsecond
	fig20DPDPLat = 5 * time.Microsecond
	fig20Samples = 30
)

// Fig20 regenerates Fig. 20: average key-management RTT for local/port key
// initialization and update.
func Fig20() (*Report, error) {
	// Both switches are keyed before the link, so the samples below start
	// from established local keys.
	c := controller.New(crypto.NewSeededRand(0xF20))
	for _, name := range []string{"k1", "k2"} {
		if err := addSwitch(c, name, false, fig20CDPLat); err != nil {
			return nil, err
		}
	}
	if err := c.ConnectSwitches("k1", 1, "k2", 1, fig20DPDPLat); err != nil {
		return nil, err
	}

	sample := func(op func() (controller.KMPResult, error)) (time.Duration, int, int, error) {
		var total time.Duration
		var msgs, bytes int
		for i := 0; i < fig20Samples; i++ {
			res, err := op()
			if err != nil {
				return 0, 0, 0, err
			}
			total += res.RTT
			msgs, bytes = res.Messages, res.Bytes
		}
		return total / fig20Samples, msgs, bytes, nil
	}

	rep := &Report{
		ID:      "Fig 20",
		Title:   "Key management protocol RTT (mean over samples)",
		Columns: []string{"operation", "RTT", "messages", "bytes"},
	}

	type op struct {
		label string
		run   func() (controller.KMPResult, error)
	}
	// Prime the port key once so updates are valid from the first sample.
	if _, err := c.PortKeyInit("k1", 1, "k2", 1); err != nil {
		return nil, err
	}
	for _, o := range []op{
		{"local key init (EAK+ADHKD)", func() (controller.KMPResult, error) { return c.LocalKeyInit("k1") }},
		{"local key update (ADHKD)", func() (controller.KMPResult, error) { return c.LocalKeyUpdate("k1") }},
		{"port key init (via controller)", func() (controller.KMPResult, error) { return c.PortKeyInit("k1", 1, "k2", 1) }},
		{"port key update (direct DP-DP)", func() (controller.KMPResult, error) { return c.PortKeyUpdate("k1", 1) }},
	} {
		rtt, msgs, bytes, err := sample(o.run)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", o.label, err)
		}
		rep.Rows = append(rep.Rows, []string{o.label, rtt.String(), fmt.Sprintf("%d", msgs), fmt.Sprintf("%d", bytes)})
	}
	rep.Notes = append(rep.Notes,
		"paper: 1-2 ms for key initialization, <1 ms for updates; port init longest (controller redirection)",
		"paper: port key update beats local key update (DP-DP legs are faster than C-DP)")
	return rep, nil
}

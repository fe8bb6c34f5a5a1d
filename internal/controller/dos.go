package controller

import (
	"fmt"
	"maps"
	"time"

	"p4auth/internal/core"
)

// ResetAlertWindow zeroes a switch's data-plane alert counter with an
// authenticated write, starting a fresh DoS-threshold window (§VIII: "set
// a threshold on the number of alert messages sent to the controller in a
// specific period").
func (c *Controller) ResetAlertWindow(sw string) (time.Duration, error) {
	return c.WriteRegister(sw, core.RegAlert, 0, 0)
}

// DoSIndicator summarizes the §VIII controller-side DoS signals for one
// switch: outstanding (unanswered) requests and alerts attributed to it.
type DoSIndicator struct {
	Switch      string
	Outstanding int
	Alerts      int
}

// CheckDoS evaluates the outstanding-request threshold for every managed
// switch and returns indicators for those above it. A switch whose
// responses are being dropped or flooded by an adversary accumulates
// unanswered sequence numbers; the paper's prescribed operator action is
// to isolate it.
func (c *Controller) CheckDoS(outstandingThreshold int) []DoSIndicator {
	var out []DoSIndicator
	for _, name := range c.switchNames() {
		h, err := c.handle(name)
		if err != nil {
			continue
		}
		n := h.seq.Outstanding()
		if n >= outstandingThreshold {
			alerts := 0
			c.mu.Lock()
			for _, a := range c.alerts {
				if a.Switch == name {
					alerts++
				}
			}
			c.mu.Unlock()
			out = append(out, DoSIndicator{Switch: name, Outstanding: n, Alerts: alerts})
		}
	}
	return out
}

// Reinitialize (the §VIII drift/DoS recovery of last resort) lives in
// persist.go with the rest of the recovery protocol.

// Quarantine removes a switch from management (the operator isolating a
// suspicious switch, §VIII). Subsequent operations on it fail.
func (c *Controller) Quarantine(sw string) error {
	known := false
	c.reconfigure(func(cfg *ctlConfig) {
		if _, known = cfg.switches[sw]; !known {
			return
		}
		cfg.switches = maps.Clone(cfg.switches)
		delete(cfg.switches, sw)
		// The adjacency goes in the same critical section: relay reads
		// both under mu.
		for pk, peer := range c.adj {
			if pk.sw == sw || peer.sw == sw {
				delete(c.adj, pk)
			}
		}
	})
	if !known {
		return fmt.Errorf("controller: unknown switch %q", sw)
	}
	return nil
}

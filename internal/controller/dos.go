package controller

import (
	"fmt"
	"maps"
	"sync"
	"time"

	"p4auth/internal/core"
)

// maxAlerts bounds the alerts a controller retains for Alerts. An
// adversary that keeps tampering keeps drawing alerts (§VIII), so keeping
// every one would let it grow the controller's heap without limit; the
// counts (AlertCount) stay exact past the bound.
const maxAlerts = 1024

// firstAlerts is the ring length an alert log's first alert allocates.
const firstAlerts = 16

// alertLog is the operator's record of alerts: the newest maxAlerts, and
// exact counts of every alert ever noted, total and per switch. It has
// its own lock, a leaf: noting an alert takes no controller lock.
type alertLog struct {
	mu sync.Mutex
	// ring holds alerts in arrival order until it first fills; it doubles
	// then, from firstAlerts up to maxAlerts, and wraps once it is that
	// long, as obs.AuditLog does, so a controller that sees no alerts
	// holds none.
	ring     []Alert
	total    int
	bySwitch map[string]int
}

func (l *alertLog) note(a Alert) {
	l.mu.Lock()
	if n := len(l.ring); l.total == n && n < maxAlerts {
		ring := make([]Alert, min(max(2*n, firstAlerts), maxAlerts))
		copy(ring, l.ring)
		l.ring = ring
	}
	l.ring[l.total%len(l.ring)] = a
	l.total++
	if l.bySwitch == nil {
		l.bySwitch = make(map[string]int)
	}
	l.bySwitch[a.Switch]++
	l.mu.Unlock()
}

// Alerts returns the retained alerts, the newest maxAlerts, oldest first.
// Safe during in-flight exchanges.
func (c *Controller) Alerts() []Alert {
	l := &c.alerts
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.ring)
	if l.total <= n {
		return append([]Alert(nil), l.ring[:l.total]...)
	}
	start := l.total % n
	out := make([]Alert, 0, n)
	out = append(out, l.ring[start:]...)
	return append(out, l.ring[:start]...)
}

// AlertCount returns how many alerts the controller has noted since it
// was created, retained by Alerts or not. Quarantine does not reset it.
func (c *Controller) AlertCount() int {
	c.alerts.mu.Lock()
	defer c.alerts.mu.Unlock()
	return c.alerts.total
}

// SwitchAlertCount is AlertCount for the alerts from one switch.
func (c *Controller) SwitchAlertCount(sw string) int {
	c.alerts.mu.Lock()
	defer c.alerts.mu.Unlock()
	return c.alerts.bySwitch[sw]
}

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
			out = append(out, DoSIndicator{Switch: name, Outstanding: n, Alerts: c.SwitchAlertCount(name)})
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

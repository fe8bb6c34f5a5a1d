// The app × fault × protection survival matrix: the harness's output.
package fleet

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Fault names. The fabric app (hula) composes all of them; standalone
// apps see the subset that applies to a single-switch deployment.
const (
	FaultNone      = "none"
	FaultAttack    = "attack"
	FaultFlap      = "flap"
	FaultPartition = "partition"
	FaultCtrlKill  = "ctrlkill"
	FaultSwCrash   = "swcrash"
	FaultComposed  = "composed"
	// FaultWANPartition is an asymmetric WAN-style cut: traffic INTO the
	// last pod is dropped while its outbound direction keeps flowing, plus
	// a latency spike on one inter-pod link — the regime the hierarchical
	// control plane's degraded mode is built for.
	FaultWANPartition = "wanpartition"
	// FaultGlobalKill kills the controller for an extended dark window
	// (modeling loss of the global broker tier): the data plane must keep
	// forwarding on committed state until recovery.
	FaultGlobalKill = "globalkill"
)

// Apps lists every protected application of the paper's Table I that the
// harness can drive, fabric first.
func Apps() []string {
	return []string{
		"hula", "netcache", "flowradar", "blink",
		"netwarden", "silkroad", "routescout", "sketch",
	}
}

// FaultsFor reports the fault set an app participates in. The HULA
// fabric rides the fat tree, so link flaps, partitions and switch
// crashes apply; the standalone apps model one switch plus controller,
// where only the attacker and controller kills are meaningful.
func FaultsFor(app string) []string {
	if app == "hula" {
		return []string{
			FaultNone, FaultAttack, FaultFlap, FaultPartition,
			FaultCtrlKill, FaultSwCrash, FaultComposed,
			FaultWANPartition, FaultGlobalKill,
		}
	}
	return []string{FaultNone, FaultAttack, FaultCtrlKill, FaultComposed}
}

// Cell is one matrix entry: one app under one fault, protection on or
// off.
type Cell struct {
	App       string `json:"app"`
	Fault     string `json:"fault"`
	Protected bool   `json:"protected"`
	// Score is the app's health metric in [0,1] (delivery ratio, hit
	// rate, correct-verdict fraction, ... — app-specific but always
	// "1 is healthy").
	Score float64 `json:"score"`
	// ForgedApplied counts attacker-forged operations that took effect
	// on app state. The protection guarantee is that this is zero
	// whenever Protected is true.
	ForgedApplied int `json:"forged_applied"`
	// Detected counts tamper detections (rejected C-DP ops + alerts).
	Detected int `json:"detected"`
	// Survived reports whether the app stayed healthy: score at or
	// above its floor and, when protected, zero forged ops applied.
	Survived bool `json:"survived"`
	// Delivered/Sent count the load the cell drove: for the fabric app,
	// data packets sent by hosts and delivered to hosts; for standalone
	// apps, the operations (queries, packets, connections) the scenario
	// ran, summed across pods.
	Delivered uint64 `json:"delivered,omitempty"`
	Sent      uint64 `json:"sent,omitempty"`
	Note      string `json:"note,omitempty"`
}

// Matrix is a full harness run.
type Matrix struct {
	K     int    `json:"k"`
	Seed  uint64 `json:"seed"`
	Cells []Cell `json:"cells"`
}

// Survival counts surviving cells.
func (m *Matrix) Survival() (survived, total int) {
	for _, c := range m.Cells {
		total++
		if c.Survived {
			survived++
		}
	}
	return survived, total
}

// Trace renders the matrix as a canonical, deterministic string — one
// line per cell in sorted order — for golden comparisons. Scores are
// rounded to two decimals so the trace pins semantics, not float dust.
func (m *Matrix) Trace() string {
	lines := make([]string, 0, len(m.Cells))
	for _, c := range m.Cells {
		lines = append(lines, fmt.Sprintf(
			"%s fault=%s protected=%v score=%.2f forged=%d detected=%t survived=%v",
			c.App, c.Fault, c.Protected, c.Score, c.ForgedApplied, c.Detected > 0, c.Survived))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// JSON renders the matrix for the bench artifact.
func (m *Matrix) JSON() ([]byte, error) {
	return json.MarshalIndent(m, "", "  ")
}

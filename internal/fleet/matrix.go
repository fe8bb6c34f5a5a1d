// The app × fault × protection survival matrix: the fault table the
// harness runs, and its output.
package fleet

// Fault names, the rows of the fault table below. The fabric app (hula)
// runs all of them; standalone apps run the subset that applies to a
// single-switch deployment.
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

// step is one part of a fault's schedule, and a fault's steps are a set
// of them. The fabric schedules its steps in this order; a standalone
// app, one switch plus its controller, runs the attack and the
// controller kill.
type step uint

const (
	stepAttack       step = 1 << iota // the adversary forges C-DP (fabric: DP-DP) messages
	stepFlap                          // one agg-core link goes down twice for 1 ms
	stepPartition                     // the last pod is cut off for 1.5 ms
	stepWANPartition                  // traffic into the last pod is cut for 1.5 ms, with a latency spike
	stepCtrlKill                      // the controller dies and recovers 1 ms later
	stepGlobalKill                    // the controller tier is dark for 3 ms
	stepSwCrash                       // one agg switch crashes and reboots warm
)

// fault is one row of the fault table.
type fault struct {
	name string
	// fabricOnly faults need the fat tree's links and switches: only
	// hula runs them.
	fabricOnly bool
	// floor is the share of its load the fabric must deliver to survive.
	floor float64
	steps step
}

// faults is the fault table, in matrix order: every fault's name, the
// apps that run it, its fabric floor and its schedule. Adding a fault is
// adding a row.
var faults = []fault{
	{FaultNone, false, 0.95, 0},
	{FaultAttack, false, 0.95, stepAttack},
	{FaultFlap, true, 0.80, stepFlap},
	{FaultPartition, true, 0.60, stepPartition},
	{FaultCtrlKill, false, 0.95, stepCtrlKill},
	{FaultSwCrash, true, 0.70, stepSwCrash},
	{FaultComposed, false, 0.50, stepAttack | stepFlap | stepCtrlKill | stepSwCrash},
	// One direction survives the cut, so the floor sits between the full
	// partition's and a healthy run's.
	{FaultWANPartition, true, 0.65, stepWANPartition},
	{FaultGlobalKill, true, 0.90, stepGlobalKill},
}

// Apps lists every protected application of the paper's Table I that the
// harness can drive, fabric first.
func Apps() []string {
	return []string{
		"hula", "netcache", "flowradar", "blink",
		"netwarden", "silkroad", "routescout", "sketch",
	}
}

// FaultsFor reports the faults an app runs, in table order: all of them
// for the HULA fabric, the ones that are not fabricOnly for a standalone
// app.
func FaultsFor(app string) []string {
	var names []string
	for _, f := range faults {
		if app == "hula" || !f.fabricOnly {
			names = append(names, f.name)
		}
	}
	return names
}

// Cell is one matrix entry: one app under one fault, protection on or
// off.
type Cell struct {
	App       string
	Fault     string
	Protected bool
	// Score is the app's health metric in [0,1] (delivery ratio, hit
	// rate, correct-verdict fraction, ... — app-specific but always
	// "1 is healthy").
	Score float64
	// ForgedApplied counts attacker-forged operations that took effect
	// on app state. The protection guarantee is that this is zero
	// whenever Protected is true.
	ForgedApplied int
	// Detected counts tamper detections (rejected C-DP ops + alerts).
	Detected int
	// Survived reports whether the app stayed healthy: score at or
	// above its floor and, when protected, zero forged ops applied.
	Survived bool
	// Delivered/Sent count the load the cell drove: for the fabric app,
	// data packets sent by hosts and delivered to hosts; for standalone
	// apps, the operations (queries, packets, connections) the scenario
	// ran, summed across pods.
	Delivered uint64
	Sent      uint64
	Note      string
}

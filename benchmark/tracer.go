package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"p4auth/internal/core"
	"p4auth/internal/fleet"
	"p4auth/internal/hula"
	"p4auth/internal/netsim"
	"p4auth/internal/switchos"
)

// The tracer records spans from outside the program: around the calls the
// workload makes (roots) and at the interposition points the program
// already offers, switchos.Hooks at both stack boundaries, netsim.Tap on
// fabric links, and the benchmark's own Sim.Step loop. Nothing under
// internal/ knows it is being traced.

// span is one timed interval. Spans of one request share Req (the
// P4Auth sequence number on the C-DP path); Parent is the ID of the span
// that caused this one, 0 for a root.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    uint32 `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds what is kept for the trace file; the per-name totals
// below cover every span of the round.
const maxSpans = 20000

type spanTotal struct {
	n  int
	ns int64
}

type tracer struct {
	t0    time.Time
	spans []span
	next  int
	// root and child are the open spans: the workload's current call and
	// the stack segment inside it.
	root, child span
	childNs     int64 // children's total inside the open root
	total       map[string]*spanTotal
	self        map[string]*spanTotal // roots only: duration minus children
	// Boundary counts, taken where the work happens.
	packetIns, alertsBadDigest, alertsReplay int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), total: map[string]*spanTotal{}, self: map[string]*spanTotal{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) add(m map[string]*spanTotal, name string, ns int64) {
	st := m[name]
	if st == nil {
		st = &spanTotal{}
		m[name] = st
	}
	st.n++
	st.ns += ns
}

func (t *tracer) keep(s span) {
	t.add(t.total, s.Name, s.End-s.Start)
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	}
}

// begin opens a root span around one call of the workload. It is safe on
// a nil tracer, which is how the untraced run executes the same code.
func (t *tracer) begin(name string) bool {
	if t == nil {
		return false
	}
	t.next++
	t.root = span{Name: name, ID: t.next, Start: t.now()}
	t.childNs = 0
	return true
}

func (t *tracer) end(open bool) {
	if !open {
		return
	}
	now := t.now()
	t.closeChild(now)
	t.root.End = now
	t.keep(t.root)
	t.add(t.self, t.root.Name, now-t.root.Start-t.childNs)
	t.root = span{}
}

func (t *tracer) closeChild(now int64) {
	if t.child.ID == 0 {
		return
	}
	t.child.End = now
	t.childNs += now - t.child.Start
	t.keep(t.child)
	t.child = span{}
}

// segment closes the open stack segment and, when name is not empty,
// opens the next one under the current root.
func (t *tracer) segment(name string, data []byte) {
	now := t.now()
	t.closeChild(now)
	if name == "" {
		return
	}
	_, seq, _ := core.PeekControl(data)
	if t.root.Req == 0 {
		t.root.Req = seq
	}
	t.next++
	t.child = span{Name: name, ID: t.next, Parent: t.root.ID, Req: seq, Start: now}
}

// hookHost installs pass-through hooks at both boundaries of the switch
// software stack. A PacketOut crosses agent/SDK then SDK/driver on the
// way down and a PacketIn the reverse on the way up, so the four stamps
// cut one request into switchos.down, pisa.pipeline and switchos.up; what
// remains of the root is the caller's own time. inner, when set, is an
// adversary's hook set at the agent/SDK boundary: it still runs, inside
// the segment it belongs to.
func (t *tracer) hookHost(h *switchos.Host, inner *switchos.Hooks) {
	same := func(data []byte) []byte { return data }
	innerOut, innerIn := same, same
	if inner != nil {
		innerOut, innerIn = inner.OnPacketOut, inner.OnPacketIn
	}
	agent := &switchos.Hooks{
		OnPacketOut: func(data []byte) []byte {
			t.segment("switchos.down", data)
			return innerOut(data)
		},
		OnPacketIn: func(data []byte) []byte {
			data = innerIn(data)
			t.segment("", nil)
			return data
		},
	}
	driver := &switchos.Hooks{
		OnPacketOut: func(data []byte) []byte {
			t.segment("pisa.pipeline", data)
			return data
		},
		OnPacketIn: func(data []byte) []byte {
			t.packetIns++
			if hdr, _, ok := core.PeekControl(data); ok && hdr == core.HdrAlert {
				switch mt, _ := core.PeekMsgType(data); mt {
				case core.AlertBadDigest:
					t.alertsBadDigest++
				case core.AlertReplay:
					t.alertsReplay++
				}
			}
			t.segment("switchos.up", data)
			return data
		},
	}
	// Install only fails on an unknown boundary.
	_ = h.Install(switchos.BoundaryAgentSDK, agent)
	_ = h.Install(switchos.BoundarySDKDriver, driver)
}

// tapFabric puts a pass-through tap on both directions of every fabric
// link that counts the probes crossing it; probe and data packets are told
// apart by their packet-type byte.
func (t *tracer) tapFabric(topo *fleet.Topology, f *fabric) {
	tap := netsim.Tap(func(data []byte) []byte {
		if len(data) == 0 || data[0] != hula.PTypeData {
			f.probes++
		}
		return data
	})
	for _, l := range topo.Links {
		_ = l.L.SetTap(l.A, tap) // both names are ends of the link
		_ = l.L.SetTap(l.B, tap)
	}
}

// step executes one simulator event and stamps it.
func (t *tracer) step(sim *netsim.Sim) {
	t.next++
	s := span{Name: "netsim.event", ID: t.next, Start: t.now()}
	sim.Step()
	s.End = t.now()
	t.keep(s)
}

// env is recorded in every file the benchmark writes: wall numbers mean
// nothing without it.
type env struct {
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
}

func hostEnv() env {
	return env{GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version()}
}

// write stores the kept spans beside the benchmark.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+workload+".json")
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Env      env    `json:"env"`
		Kept     int    `json:"spans_kept"`
		Spans    []span `json:"spans"`
	}{workload, seed, hostEnv(), len(t.spans), t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

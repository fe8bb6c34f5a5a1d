package netsim

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// Queue-equivalence gate: events run in (time, then schedule sequence)
// order, and every modeled number in the repository depends on that order
// and on nothing else the queue does. testdata/queue_order.golden is the
// execution order of seeded random schedules, recorded from the
// container/heap queue of pointers the simulator started with; any later
// queue has to reproduce it line for line. Each schedule mixes At, After
// and Send with frequent timestamp ties, timestamps in the past (clamped
// to now), scheduling and a virtual sleep from inside running events, and
// a driver that alternates Step, RunUntil, Advance and NextEventAt.
//
// The order is a property of the (at, seq) key, not of an implementation,
// so the file should never need regenerating; the repository's usual
// switch for a golden is there for adding a schedule:
//
//	GOLDEN_UPDATE=1 go test -run TestQueueOrderGolden ./internal/netsim/
const queueGoldenPath = "testdata/queue_order.golden"

var queueSeeds = []uint64{1, 7, 20250623}

// queueScript drives one simulator from one seeded stream and logs
// everything observable about the order in which things happen.
type queueScript struct {
	net    *Network
	state  uint64
	log    []string
	nextID int
	budget int // events still allowed to be scheduled, so the run ends
	depth  int // nesting of virtual sleeps inside events
}

func (q *queueScript) draw(n int) int {
	q.state = splitmix(q.state)
	return int(q.state % uint64(n))
}

func (q *queueScript) logf(format string, args ...interface{}) {
	q.log = append(q.log, fmt.Sprintf(format, args...))
}

// tick is a timestamp on a 4-value grid a few microseconds around now, so
// that ties and timestamps in the past are both common.
func (q *queueScript) tick() time.Duration {
	return time.Duration(q.draw(4)-1) * 2 * time.Microsecond
}

// schedule adds one random event: a timer by absolute or relative time, or
// a packet on one of the two directions of the link.
func (q *queueScript) schedule() {
	if q.budget == 0 {
		return
	}
	q.budget--
	q.nextID++
	id := q.nextID
	sim := q.net.Sim
	switch q.draw(4) {
	case 0:
		at := sim.Now() + q.tick()
		q.logf("at %d t=%d", id, at)
		sim.At(at, func() { q.fire(id) })
	case 1:
		d := q.tick()
		q.logf("after %d d=%d", id, d)
		sim.After(d, func() { q.fire(id) })
	default:
		from, port := "a", 1
		if q.draw(2) == 0 {
			from, port = "b", 1
		}
		size := 1 + q.draw(3)*700
		data := make([]byte, size)
		data[0] = byte(id)
		extra := time.Duration(q.draw(3)) * time.Microsecond
		q.logf("send %d from=%s len=%d extra=%d", id, from, size, extra)
		if err := q.net.Send(q.net.Node(from), port, data, extra); err != nil {
			q.logf("send %d: %v", id, err)
		}
	}
}

// fire is the body of every timer event.
func (q *queueScript) fire(id int) {
	q.logf("run %d now=%d", id, q.net.Sim.Now())
	q.nested()
}

// nested is what a running event does next: nothing, schedule more, or
// (at most one level deep) sleep on the virtual clock, which runs other
// events inside this one.
func (q *queueScript) nested() {
	for n := q.draw(3); n > 0; n-- {
		q.schedule()
	}
	if q.depth == 0 && q.draw(8) == 0 {
		q.depth++
		d := time.Duration(q.draw(5)) * time.Microsecond
		q.logf("sleep d=%d", d)
		q.net.Sim.Advance(d)
		q.logf("woke now=%d", q.net.Sim.Now())
		q.depth--
	}
}

func (q *queueScript) HandlePacket(_ *Network, node *Node, port int, data []byte) {
	q.logf("rx %s port=%d id=%d len=%d now=%d", node.Name, port, data[0], len(data), q.net.Sim.Now())
	q.nested()
}

func runQueueScript(seed uint64) []string {
	q := &queueScript{net: NewNetwork(), state: seed, budget: 300}
	q.net.AddNode("a", q)
	q.net.AddNode("b", q)
	// 1 Gb/s: a 1401-byte packet serializes for 11.2 us, so packets queue
	// behind each other and deliveries interleave with the timer grid.
	q.net.MustConnect("a", 1, "b", 1, 3*time.Microsecond, 1e9)
	sim := q.net.Sim
	q.logf("seed %d", seed)
	for i := 0; i < 40; i++ {
		q.schedule()
	}
	for {
		at, ok := sim.NextEventAt()
		q.logf("next=%d ok=%v", at, ok)
		if !ok {
			break
		}
		switch q.draw(4) {
		case 0:
			q.logf("step=%v", sim.Step())
		case 1:
			until := sim.Now() + time.Duration(q.draw(6))*time.Microsecond
			sim.RunUntil(until)
			q.logf("rununtil=%d now=%d", until, sim.Now())
		case 2:
			d := time.Duration(q.draw(6)) * time.Microsecond
			sim.Advance(d)
			q.logf("advance=%d now=%d", d, sim.Now())
		default:
			q.logf("step=%v", sim.Step())
			q.schedule() // the driver keeps scheduling between events
		}
	}
	q.logf("step=%v now=%d scheduled=%d", sim.Step(), sim.Now(), q.nextID)
	return q.log
}

func TestQueueOrderGolden(t *testing.T) {
	var got []string
	for _, seed := range queueSeeds {
		got = append(got, runQueueScript(seed)...)
	}
	if os.Getenv("GOLDEN_UPDATE") != "" {
		if err := os.WriteFile(queueGoldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
		return
	}
	raw, err := os.ReadFile(queueGoldenPath)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("line %d: got %q, want %q", i+1, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("got %d lines, want %d", len(got), len(want))
	}
}

// TestQueueScriptCoversTheHardCases keeps the golden honest: a schedule
// that never tied, never clamped or never nested would pin nothing.
func TestQueueScriptCoversTheHardCases(t *testing.T) {
	log := runQueueScript(queueSeeds[0])
	var timers, packets, sleeps, past, ties int
	lastNow := ""
	for _, l := range log {
		switch {
		case strings.HasPrefix(l, "sleep "):
			sleeps++
		case strings.HasPrefix(l, "after ") && strings.Contains(l, "d=-"):
			past++
		case strings.HasPrefix(l, "run "), strings.HasPrefix(l, "rx "):
			if strings.HasPrefix(l, "run ") {
				timers++
			} else {
				packets++
			}
			now := l[strings.LastIndex(l, "now="):]
			if now == lastNow {
				ties++
			}
			lastNow = now
		}
	}
	for name, n := range map[string]int{
		"timers run": timers, "packets delivered": packets, "virtual sleeps inside events": sleeps,
		"timestamps in the past": past, "same-time events": ties,
	} {
		if n == 0 {
			t.Errorf("no %s in the seed-%d schedule", name, queueSeeds[0])
		}
	}
}

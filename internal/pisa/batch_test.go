package pisa

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"p4auth/internal/crypto"
)

// batchPackets builds a batch spread across ports 0..ports-1, round-robin,
// with routable and unroutable destinations mixed in.
func batchPackets(n, ports int) []Packet {
	pkts := make([]Packet, n)
	for i := range pkts {
		dst := uint64(0x0A000001 + i%3)
		if i%5 == 4 {
			dst = 0xC0A80001 // no route -> drop
		}
		pkts[i] = Packet{Data: ethIPPacket(dst, 64), Port: i % ports}
	}
	return pkts
}

// TestProcessBatchSerialEquivalence pins the batch contract: ProcessBatch
// is exactly a ProcessInto loop — same emissions, same summed cost — and
// every packet keeps its own emission bytes after the whole batch
// completes.
func TestProcessBatchSerialEquivalence(t *testing.T) {
	swBatch := newTestSwitch(t, TofinoProfile())
	swLoop := newTestSwitch(t, TofinoProfile())
	pkts := batchPackets(32, 4)

	var br BatchResult
	if err := swBatch.ProcessBatch(pkts, &br); err != nil {
		t.Fatal(err)
	}
	var res Result
	var wantCost time.Duration
	for i, pkt := range pkts {
		if err := swLoop.ProcessInto(pkt, &res); err != nil {
			t.Fatal(err)
		}
		wantCost += res.Cost
		got := br.Results[i]
		if len(got.Emissions) != len(res.Emissions) {
			t.Fatalf("pkt %d: %d emissions, want %d", i, len(got.Emissions), len(res.Emissions))
		}
		for j := range res.Emissions {
			if got.Emissions[j].Port != res.Emissions[j].Port ||
				!bytes.Equal(got.Emissions[j].Data, res.Emissions[j].Data) {
				t.Fatalf("pkt %d emission %d diverges from serial loop", i, j)
			}
		}
	}
	if br.Cost != wantCost {
		t.Fatalf("batch cost %v, want serial sum %v", br.Cost, wantCost)
	}
}

// TestProcessBatchDeterministicAcrossRuns: two identical switches fed the
// same batches produce identical outputs — results depend only on
// (seed, inputs).
func TestProcessBatchDeterministicAcrossRuns(t *testing.T) {
	build := func() *Switch {
		sw, err := NewSwitch(testL3Program(), TofinoProfile(),
			WithRandom(crypto.NewSeededRand(99)))
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.InsertEntry("routes", Entry{
			Key: []KeyMatch{PKey(0x0A000000, 8)}, Action: "set_nhop", Params: []uint64{7},
		}); err != nil {
			t.Fatal(err)
		}
		if err := sw.InsertEntry("ports", Entry{
			Key: []KeyMatch{EKey(7)}, Action: "to_port", Params: []uint64{3},
		}); err != nil {
			t.Fatal(err)
		}
		return sw
	}
	a, b := build(), build()
	pkts := batchPackets(48, 6)
	var ra, rb BatchResult
	for round := 0; round < 3; round++ {
		if err := a.ProcessBatch(pkts, &ra); err != nil {
			t.Fatal(err)
		}
		if err := b.ProcessBatch(pkts, &rb); err != nil {
			t.Fatal(err)
		}
		if ra.Cost != rb.Cost {
			t.Fatalf("round %d: costs diverge: %v vs %v", round, ra.Cost, rb.Cost)
		}
		for i := range pkts {
			ea, eb := ra.Results[i].Emissions, rb.Results[i].Emissions
			if len(ea) != len(eb) {
				t.Fatalf("round %d pkt %d: emission counts diverge", round, i)
			}
			for j := range ea {
				if ea[j].Port != eb[j].Port || !bytes.Equal(ea[j].Data, eb[j].Data) {
					t.Fatalf("round %d pkt %d emission %d diverges between twin switches", round, i, j)
				}
			}
		}
	}
}

// TestProcessIntoAllocs guards the zero-alloc packet path.
func TestProcessIntoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts change under -race instrumentation")
	}
	sw := newTestSwitch(t, TofinoProfile())
	pkt := Packet{Data: ethIPPacket(0x0A000001, 64), Port: 1}
	var res Result
	// Warm pools and emission arenas.
	for i := 0; i < 16; i++ {
		if err := sw.ProcessInto(pkt, &res); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := sw.ProcessInto(pkt, &res); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ProcessInto allocs/op = %v, want 0", allocs)
	}
}

// TestProcessBatchAllocs guards the steady-state batch path: after pools
// and arenas warm, a batch is 0 allocs/op.
func TestProcessBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts change under -race instrumentation")
	}
	pkts := batchPackets(32, 4)

	sw := newTestSwitch(t, TofinoProfile())
	var br BatchResult
	for i := 0; i < 8; i++ {
		if err := sw.ProcessBatch(pkts, &br); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := sw.ProcessBatch(pkts, &br); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("ProcessBatch allocs/op = %v, want 0", allocs)
	}
}

// TestProcessBatchConcurrentMutation stress-drives the batch path against
// concurrent driver mutations (RegisterWrite, table churn, counter
// reads). Run under -race (make check does) this pins the atomic counter
// cells, stateMu and the per-bank register locks.
func TestProcessBatchConcurrentMutation(t *testing.T) {
	par, err := NewSwitch(testL3Program(), TofinoProfile())
	if err != nil {
		t.Fatal(err)
	}
	if err := par.InsertEntry("routes", Entry{
		Key: []KeyMatch{PKey(0x0A000000, 8)}, Action: "set_nhop", Params: []uint64{7},
	}); err != nil {
		t.Fatal(err)
	}
	if err := par.InsertEntry("ports", Entry{
		Key: []KeyMatch{EKey(7)}, Action: "to_port", Params: []uint64{3},
	}); err != nil {
		t.Fatal(err)
	}

	pkts := batchPackets(64, 8)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := par.RegisterWrite("pkt_count", i%8, uint64(i)); err != nil {
				t.Errorf("register write: %v", err)
				return
			}
			if err := par.ClearTable("routes"); err != nil {
				t.Errorf("clear: %v", err)
				return
			}
			_ = par.Counter("dropped")
			_ = par.CounterSnapshot()
			par.SetNow(uint64(i))
			if err := par.InsertEntry("routes", Entry{
				Key: []KeyMatch{PKey(0x0A000000, 8)}, Action: "set_nhop", Params: []uint64{7},
			}); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
		}
	}()
	var br BatchResult
	for round := 0; round < 100; round++ {
		if err := par.ProcessBatch(pkts, &br); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestCounterSnapshotAggregates checks that counters bumped by concurrent
// ProcessInto callers aggregate into one logical value with no lost
// increments, that the snapshot is in sorted name order, and that unknown
// names read as zero.
func TestCounterSnapshotAggregates(t *testing.T) {
	sw, err := NewSwitch(testL3Program(), TofinoProfile())
	if err != nil {
		t.Fatal(err)
	}
	// No routes installed: every parseable packet hits drop_pkt. Eight
	// concurrent callers, one per port, eight packets each.
	var wg sync.WaitGroup
	for port := 0; port < 8; port++ {
		wg.Add(1)
		go func(port int) {
			defer wg.Done()
			var res Result
			for i := 0; i < 8; i++ {
				if err := sw.ProcessInto(Packet{Data: ethIPPacket(0x0A000001, 64), Port: port}, &res); err != nil {
					t.Errorf("port %d: %v", port, err)
					return
				}
			}
		}(port)
	}
	wg.Wait()
	if got := sw.Counter("dropped"); got != 64 {
		t.Fatalf("dropped = %d, want 64", got)
	}
	if got := sw.Counter("no_such_counter"); got != 0 {
		t.Fatalf("unknown counter = %d, want 0", got)
	}
	snap := sw.CounterSnapshot()
	if len(snap) == 0 {
		t.Fatal("empty snapshot")
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Name >= snap[i].Name {
			t.Fatalf("snapshot not in sorted name order: %q before %q", snap[i-1].Name, snap[i].Name)
		}
	}
	found := false
	for _, cv := range snap {
		if cv.Name == "dropped" {
			found = true
			if cv.Value != 64 {
				t.Fatalf("snapshot dropped = %d, want 64", cv.Value)
			}
		}
	}
	if !found {
		t.Fatal("snapshot missing dropped counter")
	}
}

package pisa

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSwitchConcurrentProcess drives concurrent ProcessInto calls against
// concurrent driver mutations and holds the register cells to their
// contract, which is more than "no increment lost": every register op is
// linearizable on its cell. RMWAdd hands each packet a different old value
// and together they are exactly 0..N-1; RMWMax only rises, for the packets
// of one goroutine and for a RegisterRead poller alike, and ends at the
// maximum; RegisterWrite is cut to the register's width. The egress block
// adds the replica's port to a header field that ingress left at zero, so
// a replica that saw another's egress state would emit a sum: unicast
// packets run egress on the ingress state in place, multicast ones on one
// copy per replica.
func TestSwitchConcurrentProcess(t *testing.T) {
	h := func(f string) FieldRef { return F("h", f) }
	prog := &Program{
		Name: "conc",
		Headers: []*HeaderDef{{Name: "h", Fields: []FieldDef{
			{Name: "idx", Width: 8},
			{Name: "old", Width: 32},
			{Name: "val", Width: 32},
			{Name: "prev", Width: 32},
			{Name: "tag", Width: 16},
		}}},
		Parser:       []ParserState{{Name: ParserStart, Extract: "h"}},
		DeparseOrder: []string{"h"},
		Registers: []*RegisterDef{
			{Name: "hits", Width: 64, Entries: 4},
			{Name: "floor", Width: 32, Entries: 1},
			{Name: "narrow", Width: 8, Entries: 1},
		},
		Actions: []*Action{
			{Name: "fwd", Params: []FieldDef{{Name: "port", Width: 16}}, Body: []Op{
				Forward(R(F(ParamHeader, "port"))),
			}},
			{Name: "flood", Params: []FieldDef{{Name: "group", Width: 16}}, Body: []Op{
				Multicast(R(F(ParamHeader, "group"))),
			}},
		},
		Tables: []*Table{{
			Name:    "route",
			Keys:    []TableKey{{Field: h("idx"), Match: MatchExact}},
			Size:    8,
			Actions: []string{"fwd", "flood"},
			Default: "fwd", DefaultParams: []uint64{9},
		}},
		Control: []Op{
			RegRMW(h("old"), "hits", R(h("idx")), RMWAdd, C(1)),
			RegRMW(h("prev"), "floor", C(0), RMWMax, R(h("val"))),
			Apply("route"),
		},
		EgressControl: []Op{
			Add(h("tag"), R(h("tag")), R(F(MetaHeader, MetaEgressPort))),
		},
	}
	compiled, err := Compile(prog, BMv2Profile())
	if err != nil {
		t.Fatal(err)
	}
	// newSwitch counts the execution states its packets draw: the pool of
	// a fresh switch is empty, so every draw builds one.
	floodPorts := []int{2, 3, 5}
	newSwitch := func(states *atomic.Int64) *Switch {
		sw := NewSwitchFromCompiled(compiled)
		build := sw.execPool.New
		sw.execPool.New = func() any {
			states.Add(1)
			return build()
		}
		sw.SetMulticastGroup(7, floodPorts)
		if err := sw.InsertEntry("route", Entry{Key: []KeyMatch{EKey(3)}, Action: "flood", Params: []uint64{7}}); err != nil {
			t.Fatal(err)
		}
		return sw
	}
	packet := func(idx, val int) Packet {
		data := make([]byte, 15)
		data[0] = byte(idx)
		binary.BigEndian.PutUint32(data[5:], uint32(val))
		return Packet{Data: data, Port: 1}
	}
	// checkTags holds every replica's tag to its own port.
	checkTags := func(res *Result) bool {
		for _, e := range res.Emissions {
			if tag := int(binary.BigEndian.Uint16(e.Data[13:])); tag != e.Port {
				t.Errorf("replica on port %d carries tag %d: it saw another replica's egress state", e.Port, tag)
				return false
			}
		}
		return true
	}

	var states atomic.Int64
	sw := newSwitch(&states)
	var res Result
	if err := sw.ProcessInto(packet(0, 0), &res); err != nil || len(res.Emissions) != 1 || !checkTags(&res) {
		t.Fatalf("unicast: %d emissions, err %v", len(res.Emissions), err)
	}
	if n := states.Load(); n != 1 {
		t.Errorf("a unicast packet drew %d execution states, want 1", n)
	}
	states.Store(0)
	if err := sw.ProcessInto(packet(3, 0), &res); err != nil || len(res.Emissions) != len(floodPorts) || !checkTags(&res) {
		t.Fatalf("multicast: %d emissions, err %v", len(res.Emissions), err)
	}
	// The packet's own state went back to the pool, which under -race
	// drops a share of what it is given.
	if n := states.Load(); n < 1 || n > 2 {
		t.Errorf("a multicast packet drew %d execution states, want its own at most and one for the replicas", n)
	}

	const workers = 8
	const perWorker = 500
	sw = newSwitch(&states)
	olds := make([][4][]uint32, workers)
	var wg, pollers sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var res Result
			var floor uint32
			for i := 0; i < perWorker; i++ {
				idx := i % 4
				// Values interleave across workers and rise within one.
				if err := sw.ProcessInto(packet(idx, i*workers+w+1), &res); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				want := 1
				if idx == 3 {
					want = len(floodPorts)
				}
				if len(res.Emissions) != want {
					t.Errorf("worker %d: %d emissions, want %d", w, len(res.Emissions), want)
					return
				}
				if !checkTags(&res) {
					return
				}
				out := res.Emissions[0].Data
				olds[w][idx] = append(olds[w][idx], binary.BigEndian.Uint32(out[1:]))
				prev := binary.BigEndian.Uint32(out[9:])
				if prev < floor {
					t.Errorf("worker %d: RMWMax returned %d after %d", w, prev, floor)
					return
				}
				floor = prev
			}
		}(w)
	}
	// Concurrent driver-path mutations: table writes, register writes wider
	// than the register, counters, clock.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if err := sw.InsertEntry("route", Entry{
				Key: []KeyMatch{EKey(uint64(i % 3))}, Action: "fwd", Params: []uint64{uint64(2 + i%3)},
			}); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			sw.SetNow(uint64(i))
			_, _ = sw.RegisterRead("hits", i%4)
			if err := sw.RegisterWrite("narrow", 0, uint64(0xabcd00+i)); err != nil {
				t.Errorf("write: %v", err)
				return
			}
			_ = sw.Counter("dropped")
		}
	}()
	// A driver-path reader beside them: the replay floor never falls, and
	// no write shows more bits than the register has.
	stop := make(chan struct{})
	pollers.Add(1)
	go func() {
		defer pollers.Done()
		var floor uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			v, _ := sw.RegisterRead("floor", 0)
			if v < floor {
				t.Errorf("RegisterRead saw the RMWMax register fall from %d to %d", floor, v)
				return
			}
			floor = v
			if err := sw.RegisterWrite("narrow", 0, ^v); err != nil {
				t.Errorf("write: %v", err)
				return
			}
			if n, _ := sw.RegisterRead("narrow", 0); n > 0xff {
				t.Errorf("8-bit register reads %#x", n)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	pollers.Wait()

	for idx := 0; idx < 4; idx++ {
		n := workers * perWorker / 4
		seen := make([]bool, n)
		for w := range olds {
			for _, old := range olds[w][idx] {
				if int(old) >= n || seen[old] {
					t.Fatalf("hits[%d]: old value %d out of range or handed out twice", idx, old)
				}
				seen[old] = true
			}
		}
		if v, err := sw.RegisterRead("hits", idx); err != nil || v != uint64(n) {
			t.Errorf("hits[%d] = %d, %v; want %d", idx, v, err, n)
		}
	}
	if v, err := sw.RegisterRead("floor", 0); err != nil || v != workers*perWorker {
		t.Errorf("floor = %d, %v; want the maximum fed, %d", v, err, workers*perWorker)
	}
}

// TestSwitchConcurrentNeighbourLanes holds narrow registers, whose
// entries share a storage word, to per-entry linearizability: workers
// apply RMWAdd each to its own entry of an 8-bit and a 16-bit register
// while a driver-path poller writes other entries of the same words.
// Every worker sees its entry's old values in order, every entry ends at
// its exact count cut to the width, and the poller always reads back what
// it wrote, so no update to a neighbour is lost.
func TestSwitchConcurrentNeighbourLanes(t *testing.T) {
	h := func(f string) FieldRef { return F("h", f) }
	prog := &Program{
		Name: "lanes",
		Headers: []*HeaderDef{{Name: "h", Fields: []FieldDef{
			{Name: "idx", Width: 8},
			{Name: "old8", Width: 8},
			{Name: "old16", Width: 16},
		}}},
		Parser:       []ParserState{{Name: ParserStart, Extract: "h"}},
		DeparseOrder: []string{"h"},
		Registers: []*RegisterDef{
			{Name: "b8", Width: 8, Entries: 16},
			{Name: "b16", Width: 16, Entries: 16},
		},
		Control: []Op{
			RegRMW(h("old8"), "b8", R(h("idx")), RMWAdd, C(1)),
			RegRMW(h("old16"), "b16", R(h("idx")), RMWAdd, C(1)),
			Forward(C(1)),
		},
	}
	sw, err := NewSwitch(prog, BMv2Profile())
	if err != nil {
		t.Fatal(err)
	}
	// Workers own entries 0-2 and 4-6; the poller writes 3 and 7, which
	// share a word with them at 8 and at 16 bits alike.
	workerEntries := []int{0, 1, 2, 4, 5, 6}
	pollerEntries := []int{3, 7}
	// 300 adds wrap the 8-bit entries, whose carry must stay in the lane.
	const perWorker = 300
	regs := []struct {
		name string
		mask uint64
	}{{"b8", 0xff}, {"b16", 0xffff}}
	var wg, pollers sync.WaitGroup
	for _, idx := range workerEntries {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			var res Result
			for i := 0; i < perWorker; i++ {
				if err := sw.ProcessInto(Packet{Data: []byte{byte(idx), 0, 0, 0}, Port: 1}, &res); err != nil || len(res.Emissions) != 1 {
					t.Errorf("entry %d: %d emissions, err %v", idx, len(res.Emissions), err)
					return
				}
				out := res.Emissions[0].Data
				if old8, old16 := int(out[1]), int(binary.BigEndian.Uint16(out[2:])); old8 != i&0xff || old16 != i {
					t.Errorf("entry %d, add %d: old values %d (8-bit) and %d (16-bit), want %d and %d", idx, i, old8, old16, i&0xff, i)
					return
				}
			}
		}(idx)
	}
	stop := make(chan struct{})
	last := make([]uint64, len(pollerEntries))
	pollers.Add(1)
	go func() {
		defer pollers.Done()
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			for k, idx := range pollerEntries {
				v := 0xabcd0000 + i*3 + uint64(k)
				for _, reg := range regs {
					if err := sw.RegisterWrite(reg.name, idx, v); err != nil {
						t.Errorf("write: %v", err)
						return
					}
					if got, err := sw.RegisterRead(reg.name, idx); err != nil || got != v&reg.mask {
						t.Errorf("%s[%d] reads %#x, %v right after writing %#x", reg.name, idx, got, err, v)
						return
					}
				}
				last[k] = v
			}
		}
	}()
	wg.Wait()
	close(stop)
	pollers.Wait()

	for _, reg := range regs {
		for _, idx := range workerEntries {
			if v, err := sw.RegisterRead(reg.name, idx); err != nil || v != perWorker&reg.mask {
				t.Errorf("%s[%d] = %d, %v; want %d", reg.name, idx, v, err, perWorker&reg.mask)
			}
		}
		for k, idx := range pollerEntries {
			if v, err := sw.RegisterRead(reg.name, idx); err != nil || v != last[k]&reg.mask {
				t.Errorf("%s[%d] = %#x, %v; want the poller's last write cut to the width, %#x", reg.name, idx, v, err, last[k]&reg.mask)
			}
		}
	}
}

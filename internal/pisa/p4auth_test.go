package pisa_test

import (
	"bufio"
	"bytes"
	"os"
	"strconv"
	"strings"
	"testing"

	"p4auth/internal/core"
	"p4auth/internal/crypto"
	"p4auth/internal/deploy"
	"p4auth/internal/hula"
	"p4auth/internal/pisa"
)

// The four packet paths the layer ladder times, driven straight at the
// pipeline: a signed register write and read on the controller channel, a
// spoiled digest answered with an alert, and a signed HULA probe verified,
// re-signed and replicated to 8 ports. The alloc guards, the
// BenchmarkProcessP4Auth* rows and the fuzz target share these fixtures.

// cdpFixture is a deploy.Build switch and a signer for its C-DP channel.
type cdpFixture struct {
	sw  *pisa.Switch
	dig crypto.Digester
	key uint64
	seq uint32
	reg core.RegPayload
	msg core.Message
}

const cdpEntries = 1024

// clonePacket returns a copy of p that shares no bytes with it.
func clonePacket(p pisa.Packet) pisa.Packet {
	return pisa.Packet{Data: append([]byte(nil), p.Data...), Port: p.Port}
}

// newCDPFixture builds the switch. liftAlerts raises the alert threshold
// so that every rejected packet takes the alert path rather than the drop
// the DoS cap turns it into.
func newCDPFixture(tb testing.TB, liftAlerts bool) *cdpFixture {
	tb.Helper()
	spec := deploy.SwitchSpec{
		Name: "pin", Ports: 4,
		Registers: []*pisa.RegisterDef{{Name: "host_reg", Width: 64, Entries: cdpEntries}},
	}
	if liftAlerts {
		cfg := core.DefaultConfig(spec.Ports, core.DigestCRC32)
		cfg.AlertThreshold = 1 << 40
		spec.Config = &cfg
	}
	sw, err := deploy.Build(spec)
	if err != nil {
		tb.Fatal(err)
	}
	dig, err := sw.Cfg.Digester()
	if err != nil {
		tb.Fatal(err)
	}
	ri, err := sw.Host.Info.RegisterByName("host_reg")
	if err != nil {
		tb.Fatal(err)
	}
	f := &cdpFixture{sw: sw.Host.SW, dig: dig, key: sw.Cfg.Seed}
	f.reg.RegID = ri.ID
	f.msg = core.Message{Header: core.Header{HdrType: core.HdrRegister}, Reg: &f.reg}
	return f
}

// request appends the next signed register request to buf[:0]; spoil flips
// a digest bit so the pipeline rejects it.
func (f *cdpFixture) request(msgType uint8, spoil bool, buf []byte) pisa.Packet {
	f.seq++
	f.msg.MsgType, f.msg.SeqNum = msgType, f.seq
	f.reg.Index, f.reg.Value = f.seq%cdpEntries, uint64(f.seq)*0x9e3779b97f4a7c15
	_ = f.msg.Sign(f.dig, f.key) // Sign cannot fail
	if spoil {
		f.msg.Digest ^= 1
	}
	return pisa.Packet{Data: f.msg.AppendEncode(buf[:0]), Port: pisa.CPUPort}
}

// probeFixture is a secure HULA switch whose 8 ports are keyed and flood
// to all 8, and a signer for each neighbour.
type probeFixture struct {
	sw   *pisa.Switch
	dig  crypto.Digester
	keys [probePorts + 1]uint64
	seqs [probePorts + 1]uint32
	next int
	msg  core.Message
}

const probePorts = 8

// newKeyedHula boots a HULA switch whose 8 ports each flood to all 8 and,
// when secure, each hold a neighbour's key (installed as key repair
// would, through the trusted driver API).
func newKeyedHula(tb testing.TB, secure bool) (*hula.Switch, [probePorts + 1]uint64) {
	tb.Helper()
	p := hula.DefaultParams(1, probePorts)
	p.Secure = secure
	hs, err := hula.NewSwitch("pin", p, 7)
	if err != nil {
		tb.Fatal(err)
	}
	var keys [probePorts + 1]uint64
	all := make([]int, probePorts)
	for i := range all {
		all[i] = i + 1
	}
	for port := 1; port <= probePorts; port++ {
		if secure {
			keys[port] = 0xfeed0000 + uint64(port)*0x10001
			if err := hs.Host.SW.RegisterWrite(core.RegKeysV0, port, keys[port]); err != nil {
				tb.Fatal(err)
			}
		}
		if err := hs.SetProbeFlood(port, all); err != nil {
			tb.Fatal(err)
		}
	}
	return hs, keys
}

func newProbeFixture(tb testing.TB) *probeFixture {
	tb.Helper()
	hs, keys := newKeyedHula(tb, true)
	f := &probeFixture{sw: hs.Host.SW, keys: keys}
	var err error
	if f.dig, err = hs.Cfg.Digester(); err != nil {
		tb.Fatal(err)
	}
	f.msg = core.Message{
		Header: core.Header{HdrType: core.HdrFeedback, MsgType: core.MsgProbe},
		Aux:    make([]byte, 6), // dst(16) util(32)
	}
	return f
}

// probe appends the next signed probe to buf[:0], round-robin over the
// ingress ports, each port's sequence number one above its last.
func (f *probeFixture) probe(buf []byte) pisa.Packet {
	port := f.next%probePorts + 1
	f.next++
	f.seqs[port]++
	f.msg.SeqNum = f.seqs[port]
	f.msg.Aux[1] = byte(f.next % 6)                            // destination ToR
	f.msg.Aux[4], f.msg.Aux[5] = byte(f.next>>8), byte(f.next) // utilization
	_ = f.msg.Sign(f.dig, f.keys[port])                        // Sign cannot fail
	return pisa.Packet{Data: f.msg.AppendEncode(buf[:0]), Port: port}
}

// p4authPath is one of the four timed paths: next crafts a packet into
// the caller's buffer, check validates what the pipeline answered.
type p4authPath struct {
	name  string
	sw    *pisa.Switch
	next  func(buf []byte) pisa.Packet
	check func(res *pisa.Result) bool
}

func p4authPaths(tb testing.TB) []p4authPath {
	answers := func(hdrType, msgType uint8) func(*pisa.Result) bool {
		return func(res *pisa.Result) bool {
			if len(res.Emissions) != 1 || res.Emissions[0].Port != pisa.CPUPort {
				return false
			}
			gotHdr, _, ok := core.PeekControl(res.Emissions[0].Data)
			gotMsg, _ := core.PeekMsgType(res.Emissions[0].Data)
			return ok && gotHdr == hdrType && gotMsg == msgType
		}
	}
	cdp, rej, pr := newCDPFixture(tb, false), newCDPFixture(tb, true), newProbeFixture(tb)
	return []p4authPath{
		{"Write", cdp.sw, func(b []byte) pisa.Packet { return cdp.request(core.MsgWriteReq, false, b) },
			answers(core.HdrRegister, core.MsgAck)},
		{"Read", cdp.sw, func(b []byte) pisa.Packet { return cdp.request(core.MsgReadReq, false, b) },
			answers(core.HdrRegister, core.MsgAck)},
		{"Probe", pr.sw, pr.probe,
			func(res *pisa.Result) bool { return len(res.Emissions) == probePorts }},
		{"Reject", rej.sw, func(b []byte) pisa.Packet { return rej.request(core.MsgWriteReq, true, b) },
			answers(core.HdrAlert, core.AlertBadDigest)},
	}
}

// TestProcessP4AuthAllocs guards the zero-alloc packet path on the
// programs that matter, not just the L3 toy: a reintroduced per-packet
// name lookup, scratch slice or error value shows up here.
func TestProcessP4AuthAllocs(t *testing.T) {
	if pisa.RaceEnabled {
		t.Skip("alloc counts change under -race instrumentation")
	}
	for _, p := range p4authPaths(t) {
		t.Run(p.name, func(t *testing.T) {
			var res pisa.Result
			buf := make([]byte, 0, 64)
			step := func() {
				if err := p.sw.ProcessInto(p.next(buf), &res); err != nil {
					t.Fatal(err)
				}
				if !p.check(&res) {
					t.Fatalf("unexpected answer: %d emissions", len(res.Emissions))
				}
			}
			for i := 0; i < 16; i++ { // warm pools and emission arenas
				step()
			}
			if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
				t.Fatalf("ProcessInto allocs/op = %v, want 0", allocs)
			}
		})
	}
}

// benchmarkP4AuthPath times ProcessInto alone: packets are signed in
// rounds outside the timed region, and pools and emission arenas are warm
// before it starts, so that allocs/op is the steady state even at the
// bench-smoke gate's -benchtime=10x.
func benchmarkP4AuthPath(b *testing.B, name string) {
	var p p4authPath
	for _, c := range p4authPaths(b) {
		if c.name == name {
			p = c
		}
	}
	const round = 1024
	pkts := make([]pisa.Packet, round)
	bufs := make([][]byte, round)
	var res pisa.Result
	for i := 0; i < 16; i++ {
		if err := p.sw.ProcessInto(p.next(nil), &res); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%round == 0 {
			b.StopTimer()
			for j := range pkts {
				pkts[j] = p.next(bufs[j])
				bufs[j] = pkts[j].Data
			}
			b.StartTimer()
		}
		if err := p.sw.ProcessInto(pkts[i%round], &res); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if !p.check(&res) {
		b.Fatalf("unexpected answer: %d emissions", len(res.Emissions))
	}
}

func BenchmarkProcessP4AuthWrite(b *testing.B)  { benchmarkP4AuthPath(b, "Write") }
func BenchmarkProcessP4AuthRead(b *testing.B)   { benchmarkP4AuthPath(b, "Read") }
func BenchmarkProcessP4AuthProbe(b *testing.B)  { benchmarkP4AuthPath(b, "Probe") }
func BenchmarkProcessP4AuthReject(b *testing.B) { benchmarkP4AuthPath(b, "Reject") }

// exchangeGoldenSeeds turns the frozen key-exchange vectors of
// internal/core into signed key-exchange packets: the salts and public
// keys a real EAK/ADHKD run would put on the wire.
func exchangeGoldenSeeds(tb testing.TB, f *cdpFixture) [][]byte {
	tb.Helper()
	file, err := os.Open("../core/testdata/exchange_golden.txt")
	if err != nil {
		tb.Fatal(err)
	}
	defer file.Close()
	var out [][]byte
	add := func(msgType uint8, kx core.KxPayload) {
		f.seq++
		m := core.Message{Header: core.Header{HdrType: core.HdrKeyExch, MsgType: msgType, SeqNum: f.seq}, Kx: &kx}
		_ = m.Sign(f.dig, f.key) // Sign cannot fail
		out = append(out, m.AppendEncode(nil))
	}
	sc := bufio.NewScanner(file)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		hex := func(i int) uint64 {
			v, err := strconv.ParseUint(fields[i], 16, 64)
			if err != nil {
				tb.Fatalf("bad hex %q in exchange golden: %v", fields[i], err)
			}
			return v
		}
		switch fields[0] {
		case "eak": // eak <kind> <s1> <s2> <kauth>
			add(core.MsgEAKSalt1, core.KxPayload{Salt: uint32(hex(2))})
			add(core.MsgEAKSalt2, core.KxPayload{Salt: uint32(hex(3))})
		case "adhkd": // adhkd <kind> <r1> <r2> <s1> <s2> <pk1> <pk2> <kms>
			add(core.MsgADHKD1, core.KxPayload{PK: hex(6), Salt: uint32(hex(4))})
			add(core.MsgADHKD2, core.KxPayload{Port: 1, PK: hex(7), Salt: uint32(hex(5))})
		}
	}
	if len(out) == 0 {
		tb.Fatal("no seeds in the exchange golden vectors")
	}
	return out
}

// FuzzProcessP4Auth: arbitrary bytes on an arbitrary port into the P4Auth
// program never panic, never make a reused Result grow, and come out the
// same on two fresh switches.
func FuzzProcessP4Auth(f *testing.F) {
	seed := newCDPFixture(f, false)
	for _, wire := range exchangeGoldenSeeds(f, seed) {
		f.Add(wire, uint16(pisa.CPUPort))
		f.Add(wire, uint16(1))
	}
	f.Add(seed.request(core.MsgWriteReq, false, nil).Data, uint16(pisa.CPUPort))
	f.Add(seed.request(core.MsgReadReq, false, nil).Data, uint16(pisa.CPUPort))
	f.Add(seed.request(core.MsgWriteReq, true, nil).Data, uint16(pisa.CPUPort))
	f.Add([]byte{core.PTypeP4Auth}, uint16(2))
	f.Add([]byte{}, uint16(0))

	f.Fuzz(func(t *testing.T, data []byte, port uint16) {
		a, b := newCDPFixture(t, false).sw, newCDPFixture(t, false).sw
		pkt := pisa.Packet{Data: data, Port: int(port)}
		var ra, rb pisa.Result
		errA, errB := a.ProcessInto(pkt, &ra), b.ProcessInto(clonePacket(pkt), &rb)
		if (errA == nil) != (errB == nil) || (errA != nil && errA.Error() != errB.Error()) {
			t.Fatalf("twin switches disagree on the error: %v vs %v", errA, errB)
		}
		if errA == nil {
			if ra.Passes != rb.Passes || ra.Cost != rb.Cost || len(ra.Emissions) != len(rb.Emissions) {
				t.Fatalf("twin switches disagree: passes %d/%d cost %v/%v emissions %d/%d",
					ra.Passes, rb.Passes, ra.Cost, rb.Cost, len(ra.Emissions), len(rb.Emissions))
			}
			for i := range ra.Emissions {
				if ra.Emissions[i].Port != rb.Emissions[i].Port || !bytes.Equal(ra.Emissions[i].Data, rb.Emissions[i].Data) {
					t.Fatalf("twin switches disagree on emission %d", i)
				}
			}
		}
		// The same Result reused: emissions stay bounded by the replica
		// fan-out and by the packet plus the headers the program can add.
		for i := 0; i < 4; i++ {
			if err := a.ProcessInto(pkt, &ra); err != nil {
				continue
			}
			if len(ra.Emissions) > 1+4 {
				t.Fatalf("reuse %d: %d emissions from a 4-port switch", i, len(ra.Emissions))
			}
			for _, e := range ra.Emissions {
				if len(e.Data) > len(data)+64 {
					t.Fatalf("reuse %d: %d-byte emission from a %d-byte packet", i, len(e.Data), len(data))
				}
			}
		}
	})
}

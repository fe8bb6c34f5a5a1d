package main

import (
	"fmt"
	"runtime"
	"time"

	"p4auth/internal/controller"
	"p4auth/internal/core"
	"p4auth/internal/crypto"
	"p4auth/internal/deploy"
	"p4auth/internal/netsim"
	"p4auth/internal/obs"
	"p4auth/internal/pisa"
	"p4auth/internal/statestore"
	"p4auth/internal/switchos"
)

// The ladder is one rung per layer: the benchmark's own timer around one
// public function of one internal/ package, on inputs it generated, so a
// change to a layer shows on that layer's rung before it shows end to
// end. Rungs do not depend on the workload; the counts and spans of the
// traced round (traced.go) do.

// ladderSize scales every rung: samples per rung and a divisor on the
// calls per sample (the smoke pass shrinks both).
type ladderSize struct {
	samples int
	shrink  int
}

var (
	fullLadder  = ladderSize{samples: 15, shrink: 1}
	smokeLadder = ladderSize{samples: 3, shrink: 64}
)

// sink keeps results alive so the compiler cannot drop a timed call.
var sink uint64

// rungFn is one timed function of a rung group: prep runs untimed before
// every sample (it refills single-use inputs), call is timed per times.
type rungFn struct {
	prep func(per int)
	call func(i int) // i counts calls within the sample
}

// rungs times the functions of a group sample by sample in turn, so that
// the slow periods of a shared host fall on all of them alike and the
// difference between two of them (a layer's self time) holds. It returns
// each function's samples in nanoseconds per call and its allocations per
// call.
func (z ladderSize) rungs(per int, fns ...rungFn) (ns [][]float64, allocs []float64) {
	per /= z.shrink
	if per < 1 {
		per = 1
	}
	ns = make([][]float64, len(fns))
	allocs = make([]float64, len(fns))
	var before, after runtime.MemStats
	for s := 0; s < z.samples; s++ {
		for f, fn := range fns {
			if fn.prep != nil {
				fn.prep(per)
			}
			runtime.ReadMemStats(&before)
			t0 := time.Now()
			for i := 0; i < per; i++ {
				fn.call(i)
			}
			d := time.Since(t0)
			runtime.ReadMemStats(&after)
			ns[f] = append(ns[f], float64(d.Nanoseconds())/float64(per))
			allocs[f] += float64(after.Mallocs-before.Mallocs) / float64(z.samples*per)
		}
	}
	return ns, allocs
}

// rung times one function alone: typical nanoseconds and allocations per
// call.
func (z ladderSize) rung(per int, call func(i int)) (float64, float64) {
	ns, allocs := z.rungs(per, rungFn{call: call})
	return typical(ns[0]), allocs[0]
}

// over is the median of a minus b sample by sample: what the outer of two
// nested layers costs on top of the inner one.
func over(a, b []float64) float64 {
	d := make([]float64, len(a))
	for i := range a {
		d[i] = a[i] - b[i]
	}
	return median(d)
}

// crafted is a switch the benchmark talks to directly, playing the
// controller itself: after Boot the seed key is the live local key at
// version 0, so requests signed under it verify. Each wire is single-use
// (the replay floor passes it), so every sample signs its own.
type crafted struct {
	sw    *deploy.Switch
	dig   crypto.Digester
	regID uint32
	seq   uint32
	wires [][]byte
}

func newCrafted(insecure bool, cfg *core.Config) (*crafted, error) {
	sw, err := deploy.Build(deploy.SwitchSpec{
		Name: cdpSwitch, Ports: 4, Insecure: insecure, Config: cfg,
		Registers: []*pisa.RegisterDef{{Name: cdpReg, Width: 64, Entries: cdpEntries}},
	})
	if err != nil {
		return nil, err
	}
	dig, err := sw.Cfg.Digester()
	if err != nil {
		return nil, err
	}
	ri, err := sw.Host.Info.RegisterByName(cdpReg)
	if err != nil {
		return nil, err
	}
	return &crafted{sw: sw, dig: dig, regID: ri.ID}, nil
}

// sign returns a prep step that refills c.wires with n fresh register
// requests; spoil flips a digest bit so the pipeline rejects them.
func (c *crafted) sign(msgType uint8, spoil bool) func(n int) {
	reg := &core.RegPayload{RegID: c.regID}
	m := core.Message{Header: core.Header{HdrType: core.HdrRegister, MsgType: msgType}, Reg: reg}
	return func(n int) {
		for len(c.wires) < n {
			c.wires = append(c.wires, nil)
		}
		for i := 0; i < n; i++ {
			c.seq++
			m.SeqNum = c.seq
			reg.Index, reg.Value = uint32(i%cdpEntries), uint64(c.seq)
			_ = m.Sign(c.dig, c.sw.Cfg.Seed) // Sign cannot fail
			if spoil {
				m.Digest ^= 1
			}
			c.wires[i] = m.AppendEncode(c.wires[i][:0])
		}
	}
}

// ladder measures every rung and writes it into m.
func ladder(z ladderSize, seed uint64, m map[string]float64) error {
	ladderCrypto(z, m)
	ladderCore(z, m)
	ladderObsStore(z, m)
	ladderNetsim(z, m)
	for _, part := range []func(ladderSize, uint64, map[string]float64) error{ladderCDP, ladderPipeline, ladderProbes, ladderKMP} {
		if err := part(z, seed, m); err != nil {
			return fmt.Errorf("ladder: %w", err)
		}
	}
	return nil
}

// regMessage is the register request every digest and codec rung uses.
func regMessage() *core.Message {
	return &core.Message{
		Header: core.Header{HdrType: core.HdrRegister, MsgType: core.MsgWriteReq, SeqNum: 1, KeyVersion: 1},
		Reg:    &core.RegPayload{RegID: 7, Index: 3, Value: 99},
	}
}

func ladderCrypto(z ladderSize, m map[string]float64) {
	const key = uint64(0x0123456789abcdef)
	in := regMessage().AppendDigestInput(nil)
	sip, crc := crypto.SharedHalfSipHashDigester(), crypto.SharedCRC32Digester()
	m["crypto.halfsiphash_ns"], _ = z.rung(1<<15, func(int) { sink += uint64(sip.Sum32(key, in)) })
	m["crypto.crc32_ns"], _ = z.rung(1<<15, func(int) { sink += uint64(crc.Sum32(key, in)) })
	datas, out := make([][]byte, 32), make([]uint32, 32)
	for i := range datas {
		datas[i] = in
	}
	ns, _ := z.rung(1<<11, func(int) { crypto.SignBatch(crc, key, datas, out); sink += uint64(out[0]) })
	m["crypto.sign_batch32_ns_per_item"] = ns / 32
	dh := crypto.DefaultDHParams()
	m["crypto.dh_public_ns"], _ = z.rung(1<<16, func(i int) { sink += dh.PublicKey(uint64(i) | key) })
	m["crypto.dh_shared_ns"], _ = z.rung(1<<16, func(i int) { sink += dh.SharedSecret(uint64(i)|key, key) })
	// DefaultConfig's KDF settings are always valid.
	kdf, _ := core.DefaultConfig(4, core.DigestCRC32).KDF()
	m["crypto.kdf_derive_ns"], _ = z.rung(1<<13, func(i int) { sink += kdf.Derive(uint64(i), key) })
}

func ladderCore(z ladderSize, m map[string]float64) {
	const key = uint64(0x0123456789abcdef)
	d := crypto.SharedHalfSipHashDigester()
	msg := regMessage()
	var allocs, a float64
	m["core.sign_ns"], a = z.rung(1<<15, func(i int) { msg.SeqNum = uint32(i); _ = msg.Sign(d, key) })
	allocs += a
	m["core.verify_ns"], a = z.rung(1<<15, func(int) {
		if msg.Verify(d, key) {
			sink++
		}
	})
	allocs += a
	wire := msg.AppendEncode(nil)
	m["core.encode_ns"], a = z.rung(1<<16, func(int) { wire = msg.AppendEncode(wire[:0]) })
	allocs += a
	var buf core.MessageBuf
	m["core.decode_ns"], a = z.rung(1<<16, func(int) {
		if dm, err := buf.Decode(wire); err == nil {
			sink += uint64(dm.SeqNum)
		}
	})
	m["core.allocs_per_msg"] = allocs + a
}

func ladderObsStore(z ladderSize, m map[string]float64) {
	reg := obs.NewRegistry()
	c, h := reg.Counter("rung"), reg.Histogram("rung_ns")
	m["obs.counter_inc_ns"], _ = z.rung(1<<16, func(int) { c.Inc() })
	m["obs.hist_observe_ns"], _ = z.rung(1<<16, func(i int) { h.Observe(uint64(i)) })
	st := statestore.NewMem()
	val := make([]byte, 40) // about one journal entry
	m["statestore.save_ns"], _ = z.rung(1<<13, func(i int) { val[0] = byte(i); _ = st.Save("wal/pa/1", val) })
}

func ladderNetsim(z ladderSize, m map[string]float64) {
	sim := netsim.NewSim()
	noop := func() {}
	m["netsim.event_ns"], _ = z.rung(1<<14, func(int) { sim.At(sim.Now(), noop); sim.Step() })
	net := netsim.NewNetwork()
	drop := netsim.HandlerFunc(func(*netsim.Network, *netsim.Node, int, []byte) {})
	a := net.AddNode("a", drop)
	net.AddNode("b", drop)
	net.MustConnect("a", 1, "b", 1, 5*time.Microsecond, 10e9)
	pkt := make([]byte, 64)
	m["netsim.send_ns_per_pkt"], _ = z.rung(1<<13, func(int) { _ = net.Send(a, 1, pkt, 0); net.Sim.Step() })
}

// errNote keeps the first error of a timed call without branching the
// caller's loop.
type errNote struct{ err error }

func (e *errNote) note(err error) {
	if err != nil && e.err == nil {
		e.err = err
	}
}

// ladderCDP is the ladder proper: one register request timed at each of
// the three nested layers it passes, pipeline inside software stack inside
// controller, in one interleaved group so that the self times (outer minus
// inner) can be added up against the untraced cdp_serial operation.
func ladderCDP(z ladderSize, seed uint64, m map[string]float64) error {
	const per = 1 << 10
	c, err := newCrafted(false, nil)
	if err != nil {
		return err
	}
	plain, err := newCDP(seed, setupOpts{})
	if err != nil {
		return err
	}
	durable, err := newCDP(seed, setupOpts{})
	if err != nil {
		return err
	}
	if err := durable.ctrl.EnableCrashSafety(statestore.NewMem()); err != nil {
		return err
	}
	in, err := setupCDPSerial(seed, setupOpts{})
	if err != nil {
		return err
	}
	serial := in.(*cdp)
	sw, host := c.sw.Host.SW, c.sw.Host
	m["pisa.stages_per_pass"] = float64(sw.Compiled().StagesPerPass())
	var e errNote
	var res pisa.Result
	var io switchos.IOResult
	process := func(i int) { e.note(sw.ProcessInto(pisa.Packet{Data: c.wires[i], Port: pisa.CPUPort}, &res)) }
	packetOut := func(i int) {
		e.note(host.PacketOutInto(c.wires[i], &io))
		if len(io.PacketIns) != 1 {
			e.note(fmt.Errorf("PacketOut drew %d PacketIns", len(io.PacketIns)))
		}
	}
	write := func(f *cdp) func(int) {
		return func(i int) {
			_, err := f.ctrl.WriteRegister(cdpSwitch, cdpReg, uint32(i%cdpEntries), uint64(i))
			e.note(err)
		}
	}
	read := func(i int) {
		_, _, err := plain.ctrl.ReadRegister(cdpSwitch, cdpReg, uint32(i%cdpEntries))
		e.note(err)
	}
	signW, signR := c.sign(core.MsgWriteReq, false), c.sign(core.MsgReadReq, false)
	ns, allocs := z.rungs(per,
		rungFn{signW, process}, rungFn{signW, packetOut}, rungFn{nil, write(plain)},
		rungFn{signR, process}, rungFn{signR, packetOut}, rungFn{nil, read},
		rungFn{nil, write(durable)},
		rungFn{nil, func(int) {
			_, _, err := serial.run()
			e.note(err)
		}})
	m["pisa.process_ns_per_pkt"], m["pisa.allocs_per_pkt"] = typical(ns[0]), allocs[0]
	m["switchos.packetout_ns"], m["switchos.allocs_per_pkt"] = typical(ns[1]), allocs[1]
	m["controller.write_ns"] = typical(ns[2])
	m["pisa.process_read_ns_per_pkt"] = typical(ns[3])
	m["switchos.packetout_read_ns"] = typical(ns[4])
	m["controller.read_ns"] = typical(ns[5])
	m["switchos.packetout_self_ns"] = over(ns[1], ns[0])
	m["controller.write_self_ns"] = over(ns[2], ns[1])
	m["controller.read_self_ns"] = over(ns[5], ns[4])
	m["controller.wal_ns_per_op"] = over(ns[6], ns[2])
	// The ladder closes when one cdp_serial operation costs what its write
	// and its read cost rung by rung; the rest is what no rung sees.
	for i := range ns[7] {
		ns[7][i] -= ns[5][i]
	}
	m["run.unaccounted_ns"] = over(ns[7], ns[2])
	m["pisa.modeled_cost_ns_per_pkt"] = float64(res.Cost.Nanoseconds())

	// The same nesting for a window of 32.
	writes := make([]controller.RegWrite, cdpWindow)
	signWin := func(n int) { signW(n * cdpWindow) }
	ns, _ = z.rungs(per/cdpWindow,
		rungFn{signWin, func(i int) {
			e.note(host.PacketOutBatchInto(c.wires[i*cdpWindow:(i+1)*cdpWindow], &io))
			if len(io.PacketIns) != cdpWindow {
				e.note(fmt.Errorf("PacketOutBatch drew %d PacketIns", len(io.PacketIns)))
			}
		}},
		rungFn{nil, func(i int) {
			for j := range writes {
				writes[j] = controller.RegWrite{Register: cdpReg, Index: uint32((i + j) % cdpEntries), Value: uint64(i)}
			}
			_, err := plain.ctrl.WriteRegisterBatch(cdpSwitch, cdpWindow, writes)
			e.note(err)
		}})
	m["switchos.packetout_batch32_ns_per_pkt"] = typical(ns[0]) / cdpWindow
	m["controller.batch32_self_ns_per_op"] = over(ns[1], ns[0]) / cdpWindow

	// A retransmit of an answered request is served by the reply cache.
	signW(1)
	packetOut(0)
	m["switchos.cache_hit_ns"], _ = z.rung(per, func(int) { packetOut(0) })
	return e.err
}

// ladderPipeline times the two pipeline paths the C-DP ladder does not
// take: rejection and the unprotected build.
func ladderPipeline(z ladderSize, _ uint64, m map[string]float64) error {
	const per = 1 << 10
	// A spoiled digest must come back as an alert. The alert threshold is
	// lifted so that every packet takes the alert path.
	cfg := core.DefaultConfig(4, core.DigestCRC32)
	cfg.AlertThreshold = 1 << 40
	rej, err := newCrafted(false, &cfg)
	if err != nil {
		return err
	}
	ins, err := newCrafted(true, nil)
	if err != nil {
		return err
	}
	var e errNote
	var res pisa.Result
	process := func(c *crafted) func(int) {
		return func(i int) {
			e.note(c.sw.Host.SW.ProcessInto(pisa.Packet{Data: c.wires[i], Port: pisa.CPUPort}, &res))
		}
	}
	ns, _ := z.rungs(per, rungFn{rej.sign(core.MsgWriteReq, true), process(rej)})
	m["pisa.reject_ns_per_pkt"] = typical(ns[0])
	if len(res.Emissions) != 1 {
		return fmt.Errorf("spoiled request drew %d emissions", len(res.Emissions))
	}
	if hdr, _, _ := core.PeekControl(res.Emissions[0].Data); hdr != core.HdrAlert {
		return fmt.Errorf("spoiled request was not answered with an alert")
	}
	ns, _ = z.rungs(per, rungFn{ins.sign(core.MsgWriteReq, false), process(ins)})
	m["pisa.process_insecure_ns_per_pkt"] = typical(ns[0])
	return e.err
}

// ladderProbes times the DP-DP fixture of dpdp_probes at the pipeline and
// at the switch, one probe at a time and in batches of 32.
func ladderProbes(z ladderSize, seed uint64, m map[string]float64) error {
	in, err := setupProbes(seed, setupOpts{})
	if err != nil {
		return err
	}
	p := in.(*probes)
	sw, host := p.s.Host.SW, p.s.Host
	var e errNote
	var res pisa.Result
	var br pisa.BatchResult
	sign := func(int) { p.sign() }
	window := func(i int) []pisa.Packet { return p.pkts[i*probeBatch : (i+1)*probeBatch] }
	ns, _ := z.rungs(len(p.pkts),
		rungFn{sign, func(i int) { e.note(sw.ProcessInto(p.pkts[i], &res)) }},
		rungFn{sign, func(i int) {
			_, err := host.NetworkPacket(p.pkts[i].Port, p.pkts[i].Data)
			e.note(err)
		}})
	m["pisa.process_probe_ns_per_pkt"], m["hula.switch_probe_ns"] = typical(ns[0]), typical(ns[1])
	ns, _ = z.rungs(len(p.pkts)/probeBatch,
		rungFn{sign, func(i int) { e.note(sw.ProcessBatch(window(i), &br)) }},
		rungFn{sign, func(i int) { e.note(host.NetworkPacketBatchInto(window(i), &p.io)) }})
	m["pisa.process_batch32_ns_per_pkt"] = typical(ns[0]) / probeBatch
	m["switchos.network_batch32_ns_per_pkt"] = typical(ns[1]) / probeBatch
	return e.err
}

// ladderKMP times the two key-management drivers kmp_rollover calls.
func ladderKMP(z ladderSize, seed uint64, m map[string]float64) error {
	const per = 1 << 8
	in, err := setupRollover(seed, setupOpts{})
	if err != nil {
		return err
	}
	r := in.(*rollover)
	var e errNote
	m["controller.kmp_local_update_ns"], _ = z.rung(per, func(int) {
		_, err := r.ctrl.LocalKeyUpdate(rollA)
		e.note(err)
	})
	m["controller.kmp_port_update_ns"], _ = z.rung(per, func(int) {
		_, err := r.ctrl.PortKeyUpdate(rollA, rollAPort)
		e.note(err)
	})
	return e.err
}

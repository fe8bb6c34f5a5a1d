package main

import (
	"fmt"
	"sort"
	"time"

	"p4auth/internal/attacker"
	"p4auth/internal/controller"
	"p4auth/internal/core"
	"p4auth/internal/crypto"
	"p4auth/internal/deploy"
	"p4auth/internal/fleet"
	"p4auth/internal/hula"
	"p4auth/internal/pisa"
	"p4auth/internal/statestore"
	"p4auth/internal/switchos"
	"p4auth/internal/trace"
)

// instance is one set-up copy of a workload. Every workload is a closed
// loop with one client goroutine: the next operation starts when the
// previous one has returned.
type instance interface {
	// chunk runs one fixed-size chunk of operations, timing only the
	// operations themselves with p, and checks their immediate outputs.
	chunk(p *probe) (chunkStat, error)
	// finish runs the end-of-run output check against trusted state and
	// returns the per-run counts.
	finish() (counts, error)
	// layers adds the per-layer counts only this workload can supply,
	// read from the program's own counters after the traced round.
	layers(m map[string]float64)
}

// counts are the exact (per seed) outcomes of a run.
type counts struct {
	attempted int
	failed    int // operations that returned an error or were refused
	forged    int // tampered operations that took effect; must be 0
	// writes and writeModeled are the C-DP writes alone, for the
	// trajectory cross-check against the checked-in Fig. 19 rows.
	writes       int
	writeModeled time.Duration
	// rct lists each operation's modeled completion time; only a traced
	// instance keeps it.
	rct []time.Duration
}

// workload is one named entry of BENCHMARK.json.
type workload struct {
	name string
	// heapChunks is the number of chunks after which live heap is
	// sampled: a fixed operation count, so a workload that retains state
	// per operation reads the same on a fast and a slow host.
	heapChunks int
	// setup builds a fresh instance from the seed. twin selects the
	// unprotected counterpart where one exists.
	setup func(seed uint64, o setupOpts) (instance, error)
	// hasTwin reports that setup honours o.twin.
	hasTwin bool
}

// setupOpts are the ways the benchmark itself varies a set-up; none of
// them is visible to the program under test except as a different build.
type setupOpts struct {
	twin bool    // unprotected counterpart
	tr   *tracer // non-nil: record spans at the layer boundaries and per-operation modeled times
}

var workloads = []workload{
	{name: "cdp_serial", heapChunks: 16, setup: setupCDPSerial, hasTwin: true},
	{name: "cdp_window32", heapChunks: 16, setup: setupCDPWindow},
	{name: "cdp_hostile", heapChunks: 16, setup: setupCDPHostile},
	{name: "dpdp_probes", heapChunks: 16, setup: setupProbes, hasTwin: true},
	{name: "kmp_rollover", heapChunks: 16, setup: setupRollover},
	{name: "fabric_k4", heapChunks: 2, setup: setupFabric, hasTwin: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// chunkOps is the number of operations timed as one unit on the
// per-request workloads.
const chunkOps = 2048

const (
	cdpSwitch  = "pa"
	cdpReg     = "bench_reg"
	cdpEntries = 1024
	cdpWindow  = 32
)

// cdp is the one-switch C-DP fixture the three cdp_* workloads share. It
// is the fixture of the checked-in Fig. 19 rows (4 ports, one 1024 x
// 64-bit register, no control-link latency), so the modeled throughput
// must reproduce them.
type cdp struct {
	sw     *deploy.Switch
	ctrl   *controller.Controller
	r      *rng
	shadow []uint64
	tr     *tracer
	c      counts
	// run performs one operation (one window for cdp_window32) and
	// returns the operations it carried and their modeled time.
	run    func() (int, time.Duration, error)
	writes []controller.RegWrite // cdp_window32's window
	store  *statestore.Mem       // cdp_hostile's journal
}

func newCDP(seed uint64, o setupOpts) (*cdp, error) {
	sw, err := deploy.Build(deploy.SwitchSpec{
		Name:      cdpSwitch,
		Ports:     4,
		Insecure:  o.twin,
		RandSeed:  seed | 1,
		Registers: []*pisa.RegisterDef{{Name: cdpReg, Width: 64, Entries: cdpEntries}},
	})
	if err != nil {
		return nil, err
	}
	c := controller.New(crypto.NewSeededRand(seed))
	if err := c.Register(cdpSwitch, sw.Host, sw.Cfg, 0); err != nil {
		return nil, err
	}
	if !o.twin {
		if _, err := c.LocalKeyInit(cdpSwitch); err != nil {
			return nil, err
		}
	}
	return &cdp{
		sw: sw, ctrl: c, r: newRNG(seed).fork(1),
		shadow: make([]uint64, cdpEntries), tr: o.tr,
	}, nil
}

func (f *cdp) chunk(p *probe) (chunkStat, error) {
	var modeled time.Duration
	ops := 0
	p.start()
	for ops < chunkOps {
		n, lat, err := f.run()
		if err != nil {
			return chunkStat{}, err
		}
		ops += n
		modeled += lat
	}
	return p.stop(ops, modeled), nil
}

// finish reads every entry back through the trusted register API and
// compares it with the shadow array the benchmark kept.
func (f *cdp) finish() (counts, error) {
	for i, want := range f.shadow {
		got, err := f.sw.Host.SW.RegisterRead(cdpReg, i)
		if err != nil {
			return f.c, err
		}
		if got != want {
			f.c.forged++
		}
	}
	if f.c.forged > 0 {
		return f.c, fmt.Errorf("%d of %d register entries differ from the shadow array", f.c.forged, cdpEntries)
	}
	return f.c, nil
}

func (f *cdp) layers(m map[string]float64) {
	ops := float64(f.c.attempted)
	st := f.ctrl.Stats()
	ob := f.ctrl.Observer()
	m["controller.msgs_per_op"] = float64(st.MessagesSent+st.MessagesRecvd) / ops
	m["controller.retries_per_op"] = float64(ob.Metrics.Counter("ctl.retransmits").Load()) / ops
	m["controller.alerts_retained"] = float64(len(f.ctrl.Alerts()))
	if f.c.writeModeled > 0 {
		m["controller.modeled_write_ops_per_s"] = float64(f.c.writes) / f.c.writeModeled.Seconds()
	}
	m["switchos.cache_hits"] = float64(ob.Metrics.Counter("agent." + cdpSwitch + ".cache_hits").Load())
	m["obs.audit_events_per_op"] = float64(ob.Audit.Total()) / ops
	m["obs.audit_evicted"] = float64(ob.Audit.Evicted())
	if f.store != nil {
		m["statestore.saves_per_op"] = float64(f.store.Saves()) / ops
	}
	if f.tr != nil {
		alerts := f.tr.alertsBadDigest + f.tr.alertsReplay
		m["pisa.verify_ok"] = float64(f.tr.packetIns - alerts)
		m["pisa.verify_fail"] = float64(f.tr.alertsBadDigest)
		m["pisa.replay_drop"] = float64(f.tr.alertsReplay)
	}
}

func (f *cdp) note(lat time.Duration) {
	if f.tr != nil {
		f.c.rct = append(f.c.rct, lat)
	}
}

// setupCDPSerial: one operation is an authenticated write followed by an
// authenticated read of the same index, which must return the value.
func setupCDPSerial(seed uint64, o setupOpts) (instance, error) {
	f, err := newCDP(seed, o)
	if err != nil {
		return nil, err
	}
	write, read := f.ctrl.WriteRegister, f.ctrl.ReadRegister
	if o.twin {
		write, read = f.ctrl.WriteRegisterInsecure, f.ctrl.ReadRegisterInsecure
	}
	if o.tr != nil {
		o.tr.hookHost(f.sw.Host, nil)
	}
	f.run = func() (int, time.Duration, error) {
		idx, val := uint32(f.r.intn(cdpEntries)), f.r.next()
		f.c.attempted++
		sp := f.tr.begin("controller.write")
		wlat, err := write(cdpSwitch, cdpReg, idx, val)
		f.tr.end(sp)
		if err != nil {
			return 0, 0, err
		}
		f.shadow[idx] = val
		sp = f.tr.begin("controller.read")
		got, rlat, err := read(cdpSwitch, cdpReg, idx)
		f.tr.end(sp)
		if err != nil {
			return 0, 0, err
		}
		if got != val {
			return 0, 0, fmt.Errorf("read %s[%d] = %#x, wrote %#x", cdpReg, idx, got, val)
		}
		f.c.writes++
		f.c.writeModeled += wlat
		f.note(wlat + rlat)
		return 1, wlat + rlat, nil
	}
	return f, nil
}

// setupCDPWindow: one operation is one write inside a 32-write window.
func setupCDPWindow(seed uint64, o setupOpts) (instance, error) {
	f, err := newCDP(seed, o)
	if err != nil {
		return nil, err
	}
	if o.tr != nil {
		o.tr.hookHost(f.sw.Host, nil)
	}
	f.writes = make([]controller.RegWrite, cdpWindow)
	f.run = func() (int, time.Duration, error) {
		for i := range f.writes {
			f.writes[i] = controller.RegWrite{
				Register: cdpReg, Index: uint32(f.r.intn(cdpEntries)), Value: f.r.next(),
			}
		}
		f.c.attempted += cdpWindow
		sp := f.tr.begin("controller.batch")
		br, err := f.ctrl.WriteRegisterBatch(cdpSwitch, cdpWindow, f.writes)
		f.tr.end(sp)
		if err != nil {
			return 0, 0, err
		}
		for _, w := range f.writes {
			f.shadow[w.Index] = w.Value
		}
		f.c.writes += cdpWindow
		f.c.writeModeled += br.Lat
		f.note(br.Lat)
		return cdpWindow, br.Lat, nil
	}
	return f, nil
}

// Hostile schedule: the in-stack adversary flips the register value of
// every tamperEvery-th P4Auth request crossing the agent/SDK boundary on
// its way down, resends included, and the control link loses every
// lossEvery-th response after the stack has answered it, so that resend is
// served from the agent's reply cache. The operator resets the data
// plane's alert window every alertWindowOps operations, as section VIII
// prescribes, so alerts keep flowing for the whole run.
//
// Responses are not tampered with inside the stack, on purpose. The
// agent's reply cache stores a response after the hooks have seen it, so
// a resend is answered with the same tampered bytes until the retry
// budget is spent and the write is reported failed although it landed.
// That is a defect to fix in the program, not a workload: a benchmark
// workload may not contain operations that fail.
const (
	tamperEvery    = 4
	lossEvery      = 17 // coprime with the tamper period, so losses fall on acks and alerts alike
	alertWindowOps = 128
)

// setupCDPHostile: one operation is one durable write attempt under the
// resilient retry policy with the adversary active. A tampered request
// draws an authenticated alert and is resent; a lost response times out
// and the resend is answered from the agent's reply cache.
func setupCDPHostile(seed uint64, o setupOpts) (instance, error) {
	f, err := newCDP(seed, o)
	if err != nil {
		return nil, err
	}
	f.store = statestore.NewMem()
	if err := f.ctrl.EnableCrashSafety(f.store); err != nil {
		return nil, err
	}
	f.ctrl.SetRetryPolicy(controller.ResilientRetryPolicy())
	tr := newRNG(seed).fork(2)
	phase, mask := tr.intn(tamperEvery), tr.next()|1
	seen := 0
	mitm := &attacker.CtrlPlaneMitM{
		RewriteMessage: func(m *core.Message, toDataPlane bool) bool {
			if !toDataPlane || m.Reg == nil {
				return false
			}
			if seen++; seen%tamperEvery != phase {
				return false
			}
			m.Reg.Value ^= mask
			return true
		},
	}
	hooks := mitm.Hooks()
	if o.tr != nil {
		o.tr.hookHost(f.sw.Host, hooks)
	} else if err := f.sw.Host.Install(switchos.BoundaryAgentSDK, hooks); err != nil {
		return nil, err
	}
	lossPhase, answered := tr.intn(lossEvery), 0
	lose := func(data []byte) []byte {
		if answered++; answered%lossEvery == lossPhase {
			return nil
		}
		return data
	}
	if err := f.ctrl.SetControlTaps(cdpSwitch, nil, lose); err != nil {
		return nil, err
	}
	f.run = func() (int, time.Duration, error) {
		idx, val := uint32(f.r.intn(cdpEntries)), f.r.next()
		f.c.attempted++
		sp := f.tr.begin("controller.write")
		lat, err := f.ctrl.WriteRegister(cdpSwitch, cdpReg, idx, val)
		f.tr.end(sp)
		if err != nil {
			f.c.failed++
			// A refused write must leave the old value in place; the
			// end-of-run read-back holds it to that.
		} else {
			f.shadow[idx] = val
		}
		f.c.writes++
		f.c.writeModeled += lat
		if f.c.attempted%alertWindowOps == 0 {
			wlat, werr := f.ctrl.ResetAlertWindow(cdpSwitch)
			lat += wlat
			if werr != nil {
				f.c.failed++
			}
		}
		f.note(lat)
		return 1, lat, nil
	}
	return f, nil
}

// Probe fixture sizes: 8 ingress ports, batches of 32, 64 batches timed
// as one chunk.
const (
	probePorts = 8
	probeBatch = 32
	probeTors  = 64
)

// probes is the one-switch DP-DP fixture: signed HULA probes arrive on 8
// network ports, each stream under its own port key with its own
// ascending sequence numbers; the pipeline verifies each, updates the
// best hop, re-signs and emits one replica.
type probes struct {
	s    *hula.Switch
	dig  crypto.Digester
	keys []uint64
	seqs []uint32
	r    *rng
	twin bool
	tr   *tracer
	pkts []pisa.Packet
	msg  core.Message
	io   switchos.IOResult
	c    counts
}

func setupProbes(seed uint64, o setupOpts) (instance, error) {
	return newProbes(seed, o, hula.DefaultParams(1, probePorts))
}

// newProbes builds the fixture on the given switch parameters (the
// parprobe build varies them).
func newProbes(seed uint64, o setupOpts, p hula.Params) (*probes, error) {
	p.Secure = !o.twin
	s, err := hula.NewSwitch("probe", p, seed|1)
	if err != nil {
		return nil, err
	}
	f := &probes{
		s: s, keys: make([]uint64, probePorts+1), seqs: make([]uint32, probePorts+1),
		r: newRNG(seed).fork(3), twin: o.twin, tr: o.tr,
		pkts: make([]pisa.Packet, chunkOps),
	}
	if !o.twin {
		if f.dig, err = s.Cfg.Digester(); err != nil {
			return nil, err
		}
	}
	kr := newRNG(seed).fork(4)
	for port := 1; port <= probePorts; port++ {
		if !o.twin {
			// Trusted set-up: the neighbour's key goes straight into the
			// ingress key table, as key repair would install it.
			f.keys[port] = kr.next()
			if err := s.Host.SW.RegisterWrite(core.RegKeysV0, port, f.keys[port]); err != nil {
				return nil, err
			}
		}
		if err := s.SetProbeFlood(port, []int{port%probePorts + 1}); err != nil {
			return nil, err
		}
	}
	for i := range f.pkts {
		f.pkts[i].Data = make([]byte, 0, 32)
	}
	f.msg = core.Message{
		Header: core.Header{HdrType: core.HdrFeedback, MsgType: core.MsgProbe},
		Aux:    make([]byte, 6),
	}
	return f, nil
}

// sign refills the chunk's packets outside the timed region: destination
// and utilization from the seed, round-robin over the ports, each port's
// sequence number one above its last.
func (f *probes) sign() {
	body := f.msg.Aux
	for i := range f.pkts {
		port := i%probePorts + 1
		v := f.r.next()
		body[0], body[1] = 0, byte(v%probeTors)
		body[2], body[3], body[4], body[5] = byte(v>>8)&0x7f, byte(v>>16), byte(v>>24), byte(v>>32)
		pk := &f.pkts[i]
		pk.Port = port
		if f.twin {
			pk.Data = append(append(pk.Data[:0], hula.PTypeInsecureProbe), body...)
			continue
		}
		f.seqs[port]++
		f.msg.SeqNum = f.seqs[port]
		_ = f.msg.Sign(f.dig, f.keys[port]) // Sign cannot fail
		pk.Data = f.msg.AppendEncode(pk.Data[:0])
	}
}

func (f *probes) chunk(p *probe) (chunkStat, error) {
	f.sign()
	var modeled time.Duration
	out, pins := 0, 0
	p.start()
	for off := 0; off < len(f.pkts); off += probeBatch {
		sp := f.tr.begin("switchos.network_batch")
		err := f.s.Host.NetworkPacketBatchInto(f.pkts[off:off+probeBatch], &f.io)
		f.tr.end(sp)
		if err != nil {
			return chunkStat{}, err
		}
		out += len(f.io.NetOut)
		pins += len(f.io.PacketIns)
		modeled += f.io.Cost
		if f.tr != nil {
			f.c.rct = append(f.c.rct, f.io.Cost)
		}
	}
	st := p.stop(len(f.pkts), modeled)
	f.c.attempted += len(f.pkts)
	if out != len(f.pkts) || pins != 0 {
		f.c.failed += len(f.pkts) - out
		return st, fmt.Errorf("%d probes in, %d replicas out, %d PacketIns", len(f.pkts), out, pins)
	}
	return st, nil
}

// finish holds the pipeline's own verdict counters to the number of
// probes sent: every one accepted, none rejected.
func (f *probes) finish() (counts, error) {
	if f.twin {
		return f.c, nil
	}
	var ok, bad uint64
	for port := 1; port <= probePorts; port++ {
		v, err := f.s.Host.SW.RegisterRead(core.RegFbOK, port)
		if err != nil {
			return f.c, err
		}
		ok += v
		if v, err = f.s.Host.SW.RegisterRead(core.RegFbBad, port); err != nil {
			return f.c, err
		}
		bad += v
	}
	if ok != uint64(f.c.attempted) || bad != 0 {
		return f.c, fmt.Errorf("pipeline accepted %d and rejected %d of %d probes", ok, bad, f.c.attempted)
	}
	return f.c, nil
}

func (f *probes) layers(m map[string]float64) {
	if !f.twin {
		m["pisa.verify_ok"] = float64(f.c.attempted)
	}
}

// Rollover fixture: two HULA switches joined by one link, kb's port 1 to
// ka's port 2, probes travelling kb -> ka.
const (
	rollA, rollB   = "ka", "kb"
	rollAPort      = 2
	rollBPort      = 1
	rollChunk      = 128
	rollWriteIndex = probeTors - 1 // a ToR no probe advertises
)

type rollover struct {
	a, b  *hula.Switch
	ctrl  *controller.Controller
	r     *rng
	tr    *tracer
	probe []byte
	fbOK  uint64
	c     counts
	// kmp accumulates the key-management traffic for the per-layer
	// message and byte counts.
	kmp controller.KMPResult
}

func setupRollover(seed uint64, o setupOpts) (instance, error) {
	f := &rollover{
		ctrl: controller.New(crypto.NewSeededRand(seed)),
		r:    newRNG(seed).fork(5), tr: o.tr,
	}
	var err error
	for i, name := range []string{rollA, rollB} {
		sw, err := hula.NewSwitch(name, hula.DefaultParams(i+1, 2), seed+uint64(i)|1)
		if err != nil {
			return nil, err
		}
		if err := f.ctrl.Register(name, sw.Host, sw.Cfg, 50*time.Microsecond); err != nil {
			return nil, err
		}
		if i == 0 {
			f.a = sw
		} else {
			f.b = sw
		}
	}
	if err := f.ctrl.ConnectSwitches(rollA, rollAPort, rollB, rollBPort, 5*time.Microsecond); err != nil {
		return nil, err
	}
	if err := f.b.SetProbeFlood(f.b.Params.GeneratorPort, []int{rollBPort}); err != nil {
		return nil, err
	}
	if err := f.a.SetProbeFlood(rollAPort, nil); err != nil {
		return nil, err
	}
	if _, err := f.ctrl.InitAllKeys(); err != nil {
		return nil, err
	}
	if f.probe, err = hula.ProbePacket(uint16(f.b.Params.SwitchID), true); err != nil {
		return nil, err
	}
	if o.tr != nil {
		o.tr.hookHost(f.a.Host, nil)
		o.tr.hookHost(f.b.Host, nil)
	}
	return f, nil
}

// cycle is one rollover: both local keys, the port key, then proof that
// the new keys carry traffic: one authenticated write per switch, read
// back through the trusted API, and one probe across the link that the
// receiver must accept.
func (f *rollover) cycle() (time.Duration, error) {
	var modeled time.Duration
	sp := f.tr.begin("controller.kmp")
	for _, step := range []func() (controller.KMPResult, error){
		func() (controller.KMPResult, error) { return f.ctrl.LocalKeyUpdate(rollA) },
		func() (controller.KMPResult, error) { return f.ctrl.LocalKeyUpdate(rollB) },
		func() (controller.KMPResult, error) { return f.ctrl.PortKeyUpdate(rollA, rollAPort) },
	} {
		res, err := step()
		if err != nil {
			return 0, err
		}
		f.kmp.Messages += res.Messages
		f.kmp.Bytes += res.Bytes
		f.kmp.RTT += res.RTT
		modeled += res.RTT
	}
	f.tr.end(sp)
	for _, sw := range []*hula.Switch{f.a, f.b} {
		val := f.r.next() & 0xffffffff
		sp := f.tr.begin("controller.write")
		lat, err := f.ctrl.WriteRegister(sw.Name, hula.RegBestUtil, rollWriteIndex, val)
		f.tr.end(sp)
		if err != nil {
			return 0, err
		}
		modeled += lat
		got, err := sw.Host.SW.RegisterRead(hula.RegBestUtil, rollWriteIndex)
		if err != nil {
			return 0, err
		}
		if got != val {
			return 0, fmt.Errorf("%s: post-rollover write read back %#x, wrote %#x", sw.Name, got, val)
		}
	}
	sp = f.tr.begin("hula.probe_hop")
	out, err := f.b.Host.NetworkPacket(f.b.Params.GeneratorPort, f.probe)
	if err != nil {
		return 0, err
	}
	if len(out.NetOut) != 1 || out.NetOut[0].Port != rollBPort {
		return 0, fmt.Errorf("probe origin emitted %d packets", len(out.NetOut))
	}
	in, err := f.a.Host.NetworkPacket(rollAPort, out.NetOut[0].Data)
	f.tr.end(sp)
	if err != nil {
		return 0, err
	}
	modeled += out.Cost + in.Cost
	ok, err := f.a.Host.SW.RegisterRead(core.RegFbOK, rollAPort)
	if err != nil {
		return 0, err
	}
	if len(in.PacketIns) != 0 || ok != f.fbOK+1 {
		return 0, fmt.Errorf("post-rollover probe rejected: %d PacketIns, accepted count %d -> %d",
			len(in.PacketIns), f.fbOK, ok)
	}
	f.fbOK = ok
	return modeled, nil
}

func (f *rollover) chunk(p *probe) (chunkStat, error) {
	var modeled time.Duration
	p.start()
	for i := 0; i < rollChunk; i++ {
		lat, err := f.cycle()
		if err != nil {
			return chunkStat{}, err
		}
		modeled += lat
		if f.tr != nil {
			f.c.rct = append(f.c.rct, lat)
		}
	}
	st := p.stop(rollChunk, modeled)
	f.c.attempted += rollChunk
	return st, nil
}

func (f *rollover) finish() (counts, error) {
	if n := len(f.ctrl.Alerts()) + f.a.Alerts + f.b.Alerts; n != 0 {
		return f.c, fmt.Errorf("%d alerts during clean rollovers", n)
	}
	return f.c, nil
}

func (f *rollover) layers(m map[string]float64) {
	ops := float64(f.c.attempted)
	st := f.ctrl.Stats()
	m["controller.msgs_per_op"] = float64(st.MessagesSent+st.MessagesRecvd) / ops
	m["controller.alerts_retained"] = float64(len(f.ctrl.Alerts()))
	m["controller.kmp_msgs_per_rollover"] = float64(f.kmp.Messages) / ops
	m["controller.kmp_bytes_per_rollover"] = float64(f.kmp.Bytes) / ops
	m["controller.kmp_modeled_rtt_us"] = float64(f.kmp.RTT.Microseconds()) / ops
	m["obs.audit_events_per_op"] = float64(f.ctrl.Observer().Audit.Total()) / ops
	m["obs.audit_evicted"] = float64(f.ctrl.Observer().Audit.Evicted())
	m["pisa.verify_ok"] = float64(f.fbOK)
	if f.tr != nil {
		m["pisa.verify_ok"] += float64(f.tr.packetIns - f.tr.alertsBadDigest - f.tr.alertsReplay)
	}
}

// Fabric schedule, all in virtual time: every edge originates a probe
// every 200 us for the whole run, load runs from 2 ms for 10 ms, and the
// simulator is stepped until 15 ms so the tail drains.
const (
	fabricK         = 4
	fabricProbeGap  = 200 * time.Microsecond
	fabricLoadStart = 2 * time.Millisecond
	fabricLoad      = 10 * time.Millisecond
	fabricEnd       = 15 * time.Millisecond
	// fabricEdgePackets x 8 edges = 1024 data packets per iteration.
	fabricEdgePackets = 128
)

// fabric builds a fresh k=4 fat tree for every chunk (untimed), schedules
// the same seeded load on it, and times the event loop it drives itself.
// One operation is one data packet delivered to a host sink.
type fabric struct {
	cfg fleet.TopoConfig
	// whole drives the simulator with one RunUntil instead of stepping it
	// (the parprobe build: a sharded simulator cannot be stepped).
	whole bool
	tr    *tracer
	c     counts
	// topo is the next chunk's fabric, built by setup or by the previous
	// chunk's tail; built is how long that took.
	topo   *fleet.Topology
	sent   int
	builds []float64 // seconds per build + schedule
	// Counts for the per-layer metrics: simulator events, each chunk's
	// mean wall time per event, packets the link taps saw (traced run),
	// probes the pipelines accepted and links holding a key pair.
	events      int
	chunkEvent  []float64
	probes      uint64
	delivered   uint64
	fbOK        uint64
	linksKeyed  int
	alertsTotal int
}

func setupFabric(seed uint64, o setupOpts) (instance, error) {
	cfg := fleet.DefaultTopoConfig(fabricK)
	cfg.Secure = !o.twin
	cfg.Seed = seed
	f := &fabric{cfg: cfg, tr: o.tr}
	return f, f.build()
}

func (f *fabric) build() error {
	t0 := time.Now()
	topo, err := fleet.BuildFatTree(f.cfg)
	if err != nil {
		return err
	}
	sim := topo.Net.Sim
	for at := fabricProbeGap / 2; at < fabricEnd; at += fabricProbeGap {
		for _, e := range topo.Edges {
			e := e
			sim.At(at, func() { _ = topo.InjectProbe(e) })
		}
	}
	tcfg := trace.DefaultConfig(uint64(fabricLoad))
	tcfg.Seed = f.cfg.Seed
	base := trace.NewStream(tcfg)
	tors := make([]uint16, len(topo.Edges))
	for i, e := range topo.Edges {
		tors[i] = topo.TorID[e]
	}
	f.sent = 0
	for i, e := range topo.Edges {
		e, src := e, i
		// The generator's flow sizes are heavy-tailed, so the number of
		// packets in 10 ms swings by 2x between seeds while the probe
		// flood costs the same; every edge therefore sends exactly
		// fabricEdgePackets, the earliest of as many forked streams as it
		// takes, and a delivered packet costs the same on every seed.
		var pkts []trace.Packet
		for j := 0; len(pkts) < fabricEdgePackets; j++ {
			pkts = append(pkts, base.Fork(uint64(i+j*len(topo.Edges))).Generate()...)
		}
		sort.SliceStable(pkts, func(a, b int) bool { return pkts[a].AtNs < pkts[b].AtNs })
		for _, p := range pkts[:fabricEdgePackets] {
			p := p
			dst := tors[(src+1+int(p.Flow)%(len(tors)-1))%len(tors)]
			sim.At(fabricLoadStart+time.Duration(p.AtNs), func() { _ = topo.SendData(e, dst, p.Flow, p.Size) })
			f.sent++
		}
	}
	if f.tr != nil {
		f.tr.tapFabric(topo, f)
	}
	f.topo = topo
	f.builds = append(f.builds, time.Since(t0).Seconds())
	return nil
}

func (f *fabric) chunk(p *probe) (chunkStat, error) {
	topo := f.topo
	sim := topo.Net.Sim
	events := 0
	p.start()
	for !f.whole {
		at, ok := sim.NextEventAt()
		if !ok || at > fabricEnd {
			break
		}
		if f.tr != nil {
			f.tr.step(sim)
		} else {
			sim.Step()
		}
		events++
	}
	if f.whole {
		sim.RunUntil(fabricEnd)
		events = 1 // not counted; keeps the per-event mean defined
	}
	var delivered uint64
	for _, h := range topo.Hosts {
		delivered += h.Packets
	}
	st := p.stop(int(delivered), fabricLoad)
	f.events += events
	f.chunkEvent = append(f.chunkEvent, float64(st.wallNs)/float64(events))
	f.delivered += delivered
	f.alertsTotal += topo.TotalAlerts() + len(topo.Ctrl.Alerts())
	if f.cfg.Secure {
		f.linksKeyed = len(topo.Links)
		for _, sw := range topo.Switches {
			for port := 1; port <= sw.Params.Ports; port++ {
				v, err := sw.Host.SW.RegisterRead(core.RegFbOK, port)
				if err != nil {
					return st, err
				}
				f.fbOK += v
			}
		}
	}
	f.c.attempted += f.sent
	f.c.failed += f.sent - int(delivered)
	if int(delivered) != f.sent {
		return st, fmt.Errorf("fabric delivered %d of %d packets", delivered, f.sent)
	}
	if f.alertsTotal != 0 {
		return st, fmt.Errorf("fabric raised %d alerts with no adversary", f.alertsTotal)
	}
	for _, sw := range topo.Switches {
		if len(sw.Node.Errors) != 0 {
			return st, fmt.Errorf("fabric switch %s: %v", sw.Name, sw.Node.Errors[0])
		}
	}
	return st, f.build()
}

func (f *fabric) finish() (counts, error) { return f.c, nil }

func (f *fabric) layers(m map[string]float64) {
	m["netsim.fabric_event_ns"] = typical(f.chunkEvent)
	m["netsim.fabric_event_chunk_ns_p90"] = quantile(f.chunkEvent, 0.90)
	m["netsim.events_per_delivered_pkt"] = float64(f.events) / float64(f.delivered)
	m["hula.probes_per_delivered_pkt"] = float64(f.probes) / float64(f.delivered)
	m["fleet.build_k4_s"] = median(f.builds)
	m["fleet.links_keyed"] = float64(f.linksKeyed)
	m["fleet.delivered_share"] = float64(f.delivered) / float64(f.c.attempted)
	m["fleet.alerts"] = float64(f.alertsTotal)
	m["pisa.verify_ok"] = float64(f.fbOK)
}

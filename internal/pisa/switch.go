package pisa

import (
	"fmt"
	"hash/crc32"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"p4auth/internal/crypto"
	"p4auth/internal/obs"
)

// CPUPort is the reserved port number for controller PacketIn/PacketOut
// traffic.
const CPUPort = 0xFFFD

// Emission is one packet leaving the switch.
type Emission struct {
	Port int
	Data []byte
}

// Result summarizes processing of one packet.
//
// A Result passed to ProcessInto is reusable: emission buffers are
// recycled across calls, so Emission.Data is valid only until the next
// ProcessInto on the same Result. Results returned by Process own their
// buffers.
type Result struct {
	Emissions []Emission
	Passes    int
	// Cost is the modeled data-plane latency for this packet.
	Cost time.Duration

	// bufs is the per-emission buffer arena recycled across ProcessInto
	// calls on the same Result.
	bufs [][]byte
}

// Switch is a running data plane: a compiled program plus runtime state
// (table entries, register values, multicast groups). All methods are safe
// for concurrent use, and concurrent Process calls overlap:
//
//   - tables and multicast groups sit behind stateMu. A packet (a whole
//     batch in ProcessBatch) holds the read side from parse to deparse, the
//     driver mutation API the write side, so a packet sees a table change
//     entirely or not at all;
//   - a register cell is an atomic word. Every register op of a program and
//     RegisterRead/RegisterWrite is one load, one store or one
//     compare-and-swap loop on its cell, so each is linearizable per cell:
//     a read-modify-write (the replay-floor RMWMax) never loses an update
//     and returns the value it replaced. Nothing orders two cells against
//     each other, as nothing did when each register had a lock;
//   - diagnostic counters are atomics, and the random() source is
//     concurrency-safe.
type Switch struct {
	compiled *Compiled

	// stateMu guards tables and mcast: Process holds the read side, the
	// driver mutation API the write side.
	stateMu sync.RWMutex
	tables  []*tableState
	mcast   map[uint64][]int

	// regs[i][j] is entry j of register i, stored cut to the register's
	// width.
	regs [][]atomic.Uint64

	// counters are the diagnostic-counter cells, indexed by counter ID.
	counters [numDPCounters]atomic.Uint64
	// mirror, when set, shadows the diagnostic counters into an obs
	// registry, indexed by counter ID (see MirrorCounters).
	mirror atomic.Pointer[[numDPCounters]*obs.Counter]

	// rng is the random source backing the P4 random() extern.
	rng crypto.RandomSource

	// args are this switch's values of Program.Args, cut to width.
	args []uint64

	crcIEEE   *crc32.Table
	crcCast   *crc32.Table
	keyedIEEE crypto.KeyedCRC32
	keyedCast crypto.KeyedCRC32
	halfsip   crypto.HalfSipHash

	now atomic.Uint64

	// execPool recycles per-packet execution state (PHV, header validity,
	// hash/table scratch) so steady-state Process does not allocate.
	execPool sync.Pool
}

// SetNow sets the ingress timestamp (nanoseconds) stamped into
// MetaTimestamp for subsequent packets. Simulation adapters call this with
// the virtual clock before each Process.
func (s *Switch) SetNow(ns uint64) { s.now.Store(ns) }

// Option configures a Switch.
type Option func(*Switch)

// WithRandom sets the random source backing the P4 random() extern.
func WithRandom(r crypto.RandomSource) Option {
	return func(s *Switch) { s.rng = r }
}

// WithArg binds the switch's value of the program arg name (unbound args
// read 0). Binding an arg the program does not declare panics.
func WithArg(name string, v uint64) Option {
	return func(s *Switch) {
		for i, a := range s.compiled.args {
			if a.Name == name {
				s.args[i] = v & mask(a.Width)
				return
			}
		}
		panic(fmt.Sprintf("pisa: program %s has no arg %q", s.compiled.name, name))
	}
}

// NewSwitch compiles the program for the profile and instantiates runtime
// state.
func NewSwitch(prog *Program, profile Profile, opts ...Option) (*Switch, error) {
	compiled, err := Compile(prog, profile)
	if err != nil {
		return nil, fmt.Errorf("pisa: compile %s for %s: %w", prog.Name, profile.Name, err)
	}
	return NewSwitchFromCompiled(compiled, opts...), nil
}

// NewSwitchFromCompiled instantiates runtime state for an already-compiled
// program. Several switches can share one compilation: args, registers,
// tables, multicast groups, counters, the random() source, the clock and
// the execution-state pool are the switch's own.
func NewSwitchFromCompiled(compiled *Compiled, opts ...Option) *Switch {
	s := &Switch{
		compiled:  compiled,
		args:      make([]uint64, len(compiled.args)),
		rng:       crypto.NewSeededRand(0x9a4aadd),
		mcast:     make(map[uint64][]int),
		crcIEEE:   crypto.IEEETable(),
		crcCast:   crypto.CastagnoliTable(),
		keyedIEEE: crypto.NewKeyedCRC32(),
		keyedCast: crypto.NewKeyedCRC32Castagnoli(),
		halfsip:   crypto.NewHalfSipHash24(),
	}
	for ti := range compiled.tables {
		s.tables = append(s.tables, newTableState(compiled, ti))
	}
	for _, r := range compiled.registers {
		s.regs = append(s.regs, make([]atomic.Uint64, r.Entries))
	}
	s.execPool.New = func() any {
		st := &execState{
			vals:  make([]uint64, int(compiled.constBase)+len(compiled.consts)),
			valid: make([]bool, len(compiled.headers)),
		}
		copy(st.vals[compiled.argBase:], s.args)
		copy(st.vals[compiled.constBase:], compiled.consts)
		return st
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Compiled exposes the compilation (resource report, profile).
func (s *Switch) Compiled() *Compiled { return s.compiled }

// --- driver-level runtime API (the attackable switch-software surface) ---

// InsertEntry installs a table entry.
func (s *Switch) InsertEntry(table string, e Entry) error {
	return s.writeTable(table, func(ts *tableState) error { return ts.insert(e) })
}

// ClearTable removes all entries from a table.
func (s *Switch) ClearTable(table string) error {
	return s.writeTable(table, func(ts *tableState) error { ts.clear(); return nil })
}

// writeTable runs one driver write on a table, refusing a const one.
func (s *Switch) writeTable(table string, write func(*tableState) error) error {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	ti, ok := s.compiled.tableIndex[table]
	if !ok {
		return fmt.Errorf("pisa: unknown table %q", table)
	}
	if s.compiled.tables[ti].shared != nil {
		return fmt.Errorf("pisa: table %s: %w", table, ErrConstTable)
	}
	return write(s.tables[ti])
}

// RegisterRead reads a register entry directly (the driver path).
func (s *Switch) RegisterRead(name string, index int) (uint64, error) {
	ri, ok := s.compiled.regIndex[name]
	if !ok {
		return 0, fmt.Errorf("pisa: unknown register %q", name)
	}
	if index < 0 || index >= len(s.regs[ri]) {
		return 0, fmt.Errorf("pisa: register %s index %d out of range [0,%d)", name, index, len(s.regs[ri]))
	}
	return s.regs[ri][index].Load(), nil
}

// RegisterWrite writes a register entry directly (the driver path).
func (s *Switch) RegisterWrite(name string, index int, v uint64) error {
	ri, ok := s.compiled.regIndex[name]
	if !ok {
		return fmt.Errorf("pisa: unknown register %q", name)
	}
	if index < 0 || index >= len(s.regs[ri]) {
		return fmt.Errorf("pisa: register %s index %d out of range [0,%d)", name, index, len(s.regs[ri]))
	}
	s.regs[ri][index].Store(v & s.compiled.regMask[ri])
	return nil
}

// SetMulticastGroup configures the ports of a multicast group.
func (s *Switch) SetMulticastGroup(group uint64, ports []int) {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	s.mcast[group] = append([]int(nil), ports...)
}

// Diagnostic counter IDs. The set is closed (the interpreter is the only
// writer), which is what lets the hot path drop the name map and lock for
// a fixed array of atomic cells.
const (
	cntParseError = iota
	cntRecircOverflow
	cntDropped
	cntNoEgress
	cntEgressDropped
	cntRegIndexWrap
	numDPCounters
)

// dpCounterNames maps counter IDs to their stable external names.
var dpCounterNames = [numDPCounters]string{
	cntParseError:     "parse_error",
	cntRecircOverflow: "recirc_overflow",
	cntDropped:        "dropped",
	cntNoEgress:       "no_egress",
	cntEgressDropped:  "egress_dropped",
	cntRegIndexWrap:   "reg_index_wrap",
}

// Counter returns a named diagnostic counter (0 for unknown names).
func (s *Switch) Counter(name string) uint64 {
	for id, n := range dpCounterNames {
		if n == name {
			return s.counters[id].Load()
		}
	}
	return 0
}

// CounterValue is one named diagnostic counter reading.
type CounterValue struct {
	Name  string
	Value uint64
}

// counterSnapshotOrder lists counter IDs in lexicographic name order, so
// snapshots are deterministic without sorting per call.
var counterSnapshotOrder = func() [numDPCounters]int {
	var order [numDPCounters]int
	for i := range order {
		order[i] = i
	}
	sort.Slice(order[:], func(a, b int) bool {
		return dpCounterNames[order[a]] < dpCounterNames[order[b]]
	})
	return order
}()

// CounterSnapshot returns every diagnostic counter in deterministic
// (lexicographic name) order. Each counter is read atomically; the
// snapshot as a whole is not a single atomic cut under concurrent
// traffic.
func (s *Switch) CounterSnapshot() []CounterValue {
	out := make([]CounterValue, 0, numDPCounters)
	for _, id := range counterSnapshotOrder {
		out = append(out, CounterValue{Name: dpCounterNames[id], Value: s.counters[id].Load()})
	}
	return out
}

// MirrorCounters mirrors the switch's diagnostic counters into an obs
// registry under the given prefix (e.g. "dp.s1."). The mirror reads the
// same cells as Counter: counts accumulated before the mirror was
// installed are folded in here, so the obs view equals the switch's own
// from the moment of installation, and bump's hot path pays one atomic
// pointer load plus an indexed increment.
func (s *Switch) MirrorCounters(reg *obs.Registry, prefix string) {
	var arr [numDPCounters]*obs.Counter
	for id, name := range dpCounterNames {
		c := reg.Counter(prefix + name)
		if cur := s.counters[id].Load(); cur > c.Load() {
			c.Add(cur - c.Load())
		}
		arr[id] = c
	}
	s.mirror.Store(&arr)
}

func (s *Switch) bump(id int) {
	s.counters[id].Add(1)
	if mp := s.mirror.Load(); mp != nil {
		mp[id].Inc()
	}
}

// --- packet processing ---

type execState struct {
	// vals is the value file the linked ops index: PHV slots, then the
	// action-parameter window, then the program's constants.
	vals    []uint64
	valid   []bool
	payload []byte
	passes  int

	// Reusable scratch, pooled with the state.
	hashBuf []byte
	keyBuf  []byte
	dests   []int
}

// reset readies st for the next packet; parse sets the payload and the
// pass loop the pass count before either is read.
func (st *execState) reset(c *Compiled) {
	clear(st.vals[:c.paramBase])
	clear(st.valid)
	st.dests = st.dests[:0]
}

// meta returns the intrinsic-metadata slots of st, indexed by the m*
// constants.
func (c *Compiled) meta(st *execState) []uint64 {
	return st.vals[c.metaBase:][:numIntrinsic]
}

// Process runs one packet through the pipeline and returns its emissions
// and modeled cost. The returned Result owns its buffers.
func (s *Switch) Process(pkt Packet) (Result, error) {
	var res Result
	err := s.ProcessInto(pkt, &res)
	return res, err
}

// ProcessInto runs one packet through the pipeline, writing emissions and
// cost into res. Emission buffers in res are recycled: they are valid only
// until the next ProcessInto on the same Result. On error the contents of
// res are undefined.
func (s *Switch) ProcessInto(pkt Packet, res *Result) error {
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	st := s.execPool.Get().(*execState)
	defer s.execPool.Put(st)
	return s.process(st, pkt, res)
}

// process runs one packet on st, which the caller took from execPool, with
// the read side of stateMu held.
func (s *Switch) process(st *execState, pkt Packet, res *Result) error {
	c := s.compiled
	st.reset(c)

	res.Emissions = res.Emissions[:0]
	res.Passes = 0
	res.Cost = 0

	if err := s.parse(st, pkt.Data); err != nil {
		s.bump(cntParseError)
		return err
	}
	meta := c.meta(st)
	meta[mIngressPort] = uint64(pkt.Port) & intrinsicMask[mIngressPort]
	meta[mTimestamp] = s.now.Load() & intrinsicMask[mTimestamp]
	meta[mPktLen] = uint64(len(pkt.Data)) & intrinsicMask[mPktLen]

	maxPasses := c.Profile.MaxPasses
	for pass := 0; ; pass++ {
		st.passes = pass + 1
		meta[mPass] = uint64(pass) & intrinsicMask[mPass]
		meta[mRecirc] = 0
		s.run(st, c.control)
		if meta[mRecirc] == 0 {
			break
		}
		if pass+1 >= maxPasses {
			s.bump(cntRecircOverflow)
			meta[mDrop] = 1
			break
		}
	}

	stages := c.StagesPerPass() + c.Usage.EgressStages
	res.Passes = st.passes
	res.Cost = c.Profile.PacketCost(stages, st.passes, len(st.payload))
	if meta[mDrop] != 0 {
		s.bump(cntDropped)
		return nil
	}

	// Replication: copy-to-CPU plus multicast group or unicast port.
	dests := st.dests
	if meta[mToCPU] != 0 {
		dests = append(dests, CPUPort)
	}
	switch {
	case meta[mMcastGroup] != 0:
		dests = append(dests, s.mcast[meta[mMcastGroup]]...)
	case meta[mEgressPort] != 0:
		// Ports are 1-based; 0 means "no unicast decision".
		dests = append(dests, int(meta[mEgressPort]))
	default:
		if len(dests) == 0 {
			s.bump(cntNoEgress)
		}
	}
	st.dests = dests

	// Egress pipeline per replica. A single destination runs it on the
	// ingress state in place; each of several replicas starts from a copy
	// of that state, so what one replica's egress writes no other sees.
	est := st
	if len(dests) > 1 {
		est = s.execPool.Get().(*execState)
	}
	for _, port := range dests {
		if est != st {
			copy(est.vals[:c.paramBase], st.vals)
			copy(est.valid, st.valid)
			est.payload = append(est.payload[:0], st.payload...)
		}
		emeta := c.meta(est)
		emeta[mEgressPort] = uint64(port) & intrinsicMask[mEgressPort]
		s.run(est, c.egress)
		if emeta[mDrop] != 0 {
			s.bump(cntEgressDropped)
			continue
		}
		idx := len(res.Emissions)
		var buf []byte
		if idx < len(res.bufs) {
			buf = res.bufs[idx][:0]
		}
		buf = s.deparseInto(est, buf)
		if idx < len(res.bufs) {
			res.bufs[idx] = buf
		} else {
			res.bufs = append(res.bufs, buf)
		}
		res.Emissions = append(res.Emissions, Emission{Port: port, Data: buf})
	}
	if est != st {
		s.execPool.Put(est)
	}
	return nil
}

func (s *Switch) parse(st *execState, data []byte) error {
	c := s.compiled
	rest := data
	for si, steps := c.startState, 0; si >= 0; steps++ {
		if steps > 64 {
			return fmt.Errorf("pisa: parser exceeded 64 states (loop?)")
		}
		state := &c.states[si]
		if state.extract >= 0 {
			h := &c.headers[state.extract]
			if len(rest) < int(h.bytes) {
				return fmt.Errorf("pisa: header %s needs %d bytes, packet has %d", c.headerNames[state.extract], h.bytes, len(rest))
			}
			loadFields(h.plan, rest, st.vals)
			st.valid[state.extract] = true
			rest = rest[h.bytes:]
		}
		si = state.def
		if state.sel >= 0 {
			v := st.vals[state.sel]
			for _, t := range c.trans[state.trans.start:state.trans.end] {
				if t.val == v {
					si = t.next
					break
				}
			}
		}
	}
	st.payload = append(st.payload[:0], rest...)
	return nil
}

// deparseInto serializes the valid headers and payload, appending into out.
func (s *Switch) deparseInto(st *execState, out []byte) []byte {
	c := s.compiled
	for _, hi := range c.deparse {
		if !st.valid[hi] {
			continue
		}
		h := &c.headers[hi]
		base := len(out)
		// packFields ORs into the buffer, so the fresh bytes must be zero;
		// this append form extends in place without a temporary.
		out = append(out, make([]byte, h.bytes)...)
		packFields(h.plan, out[base:], st.vals)
	}
	return append(out, st.payload...)
}

func rotl(v uint64, n uint64, width int) uint64 {
	n %= uint64(width)
	m := mask(width)
	v &= m
	return ((v << n) | (v >> (uint64(width) - n))) & m
}

// run executes one block of linked code on st.
func (s *Switch) run(st *execState, b span) {
	c := s.compiled
	v := st.vals
	for pc := b.start; pc < b.end; {
		op := &c.code[pc]
		pc++
		switch OpKind(op.kind) {
		case OpSet:
			v[op.dst] = v[op.a] & op.mask()
		case OpAdd:
			v[op.dst] = (v[op.a] + v[op.b]) & op.mask()
		case OpSub:
			v[op.dst] = (v[op.a] - v[op.b]) & op.mask()
		case OpXor:
			v[op.dst] = (v[op.a] ^ v[op.b]) & op.mask()
		case OpAnd:
			v[op.dst] = v[op.a] & v[op.b] & op.mask()
		case OpOr:
			v[op.dst] = (v[op.a] | v[op.b]) & op.mask()
		case OpShl:
			// Go shifts of 64 or more yield 0, as the ALU does.
			v[op.dst] = (v[op.a] << v[op.b]) & op.mask()
		case OpShr:
			v[op.dst] = (v[op.a] >> v[op.b]) & op.mask()
		case OpRotl:
			v[op.dst] = rotl(v[op.a], v[op.b], int(op.dw))
		case OpHash:
			v[op.dst] = uint64(s.execHash(st, op)) & op.mask()
		case OpRegRead, OpRegWrite, OpRegRMW:
			s.execReg(st, op)
		case OpRandom:
			// RandomSource implementations are concurrency-safe.
			v[op.dst] = s.rng.Uint64() & op.mask()
		case OpSetValid:
			if !st.valid[op.dst] {
				st.valid[op.dst] = true
				h := &c.headers[op.dst]
				clear(v[h.first : h.first+h.n])
			}
		case OpSetInvalid:
			st.valid[op.dst] = false
		case OpApply:
			s.applyTable(st, op.dst)
		case OpIf:
			var ok bool
			if op.flags&flagValid != 0 {
				ok = st.valid[op.dst]
			} else {
				l, r := v[op.a], v[op.b]
				switch CmpKind(op.sub) {
				case CmpEq:
					ok = l == r
				case CmpNe:
					ok = l != r
				case CmpLt:
					ok = l < r
				case CmpLe:
					ok = l <= r
				case CmpGt:
					ok = l > r
				case CmpGe:
					ok = l >= r
				}
			}
			if ok == (op.flags&flagNegate != 0) {
				pc = op.x
			}
		case opJump:
			pc = op.x
		}
	}
}

// execReg runs one register op on its cell: a load, a store, or for a
// read-modify-write a compare-and-swap loop, the data plane's stateful ALU
// being atomic per packet (the replay-floor RMWMax depends on it).
func (s *Switch) execReg(st *execState, op *lop) {
	v := st.vals
	bank := s.regs[op.x]
	idx := v[op.b]
	if idx >= uint64(len(bank)) {
		s.bump(cntRegIndexWrap)
		idx %= uint64(len(bank))
	}
	cell := &bank[idx]
	switch OpKind(op.kind) {
	case OpRegRead:
		v[op.dst] = cell.Load() & op.mask()
	case OpRegWrite:
		cell.Store(v[op.a] & s.compiled.regMask[op.x])
	case OpRegRMW:
		a := v[op.a]
		for {
			old := cell.Load()
			var next uint64
			switch RMWKind(op.sub) {
			case RMWAdd:
				next = old + a
			case RMWWrite:
				next = a
			case RMWMax:
				next = max(old, a)
			case RMWXor:
				next = old ^ a
			}
			if cell.CompareAndSwap(old, next&s.compiled.regMask[op.x]) {
				v[op.dst] = old & op.mask()
				return
			}
		}
	}
}

func (s *Switch) execHash(st *execState, op *lop) uint32 {
	// Serialize inputs MSB-first at declared widths (at most 8 bytes
	// each), then payload.
	plan := s.compiled.hashIns[op.x:op.b]
	n := planBytes(plan)
	if cap(st.hashBuf) < n {
		st.hashBuf = make([]byte, n)
	}
	data := st.hashBuf[:n]
	clear(data)
	packFields(plan, data, st.vals)
	if op.flags&flagPayload != 0 {
		data = append(data, st.payload...)
		st.hashBuf = data
	}
	keyed := op.flags&flagKeyed != 0
	var key uint64
	if keyed {
		key = st.vals[op.a]
	}
	switch HashAlg(op.sub) {
	case HashCRC32:
		if keyed {
			return s.keyedIEEE.Sum32(key, data)
		}
		return crc32.Checksum(data, s.crcIEEE)
	case HashCRC32C:
		if keyed {
			return s.keyedCast.Sum32(key, data)
		}
		return crc32.Checksum(data, s.crcCast)
	case HashIdentity:
		var v uint32
		for _, b := range data {
			v = v<<8 | uint32(b)
		}
		return v
	default: // HashHalfSipHash
		return s.halfsip.Sum32(key, data)
	}
}

func (s *Switch) applyTable(st *execState, ti int32) {
	ts := s.tables[ti]
	entry, keyBuf := ts.lookup(st.vals, st.keyBuf)
	st.keyBuf = keyBuf
	action, params := ts.lt.def, ts.lt.defParams
	if entry != nil {
		action, params = entry.action, entry.params
	}
	if action < 0 {
		return // miss with no default: no-op
	}
	// The parameter count was checked when the entry was installed (the
	// default's when the program was compiled).
	c := s.compiled
	copy(st.vals[c.paramBase:c.argBase], params)
	s.run(st, c.actions[action])
}

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
// for concurrent use. State is sharded so concurrent Process calls
// overlap: table/multicast mutations take a write lock that packet
// processing reads, register banks have per-register locks (register
// read-modify-writes — the replay-floor RMWMax — stay atomic), and
// diagnostic counters are lock-free atomics.
type Switch struct {
	compiled *Compiled

	// stateMu guards tables and mcast: Process holds the read side, the
	// driver mutation API the write side.
	stateMu sync.RWMutex
	tables  []*tableState
	mcast   map[uint64][]int

	// regMu[i] guards regs[i]; RMW sequences hold the lock across
	// read-modify-write so data-plane atomics keep their semantics.
	regMu []sync.Mutex
	regs  [][]uint64

	// counters are the diagnostic-counter cells, indexed by counter ID.
	counters [numDPCounters]atomic.Uint64
	// mirror, when set, shadows the diagnostic counters into an obs
	// registry, indexed by counter ID (see MirrorCounters).
	mirror atomic.Pointer[[numDPCounters]*obs.Counter]

	// rng is the random source backing the P4 random() extern.
	rng crypto.RandomSource

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
// program (several switches can share one compilation).
func NewSwitchFromCompiled(compiled *Compiled, opts ...Option) *Switch {
	s := &Switch{
		compiled:  compiled,
		rng:       crypto.NewSeededRand(0x9a4aadd),
		mcast:     make(map[uint64][]int),
		crcIEEE:   crypto.IEEETable(),
		crcCast:   crypto.CastagnoliTable(),
		keyedIEEE: crypto.NewKeyedCRC32(),
		keyedCast: crypto.NewKeyedCRC32Castagnoli(),
		halfsip:   crypto.NewHalfSipHash24(),
	}
	for _, t := range compiled.Program.Tables {
		s.tables = append(s.tables, newTableState(t))
	}
	for _, r := range compiled.Program.Registers {
		s.regs = append(s.regs, make([]uint64, r.Entries))
	}
	s.regMu = make([]sync.Mutex, len(s.regs))
	s.execPool.New = func() any {
		return &execState{
			phv:   make([]uint64, len(compiled.slotWidth)),
			valid: make([]bool, len(compiled.Program.Headers)),
		}
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
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	ti, ok := s.compiled.tableIndex[table]
	if !ok {
		return fmt.Errorf("pisa: unknown table %q", table)
	}
	return s.tables[ti].insert(e)
}

// DeleteEntry removes the entry with the exact key from a table.
func (s *Switch) DeleteEntry(table string, key []KeyMatch) error {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	ti, ok := s.compiled.tableIndex[table]
	if !ok {
		return fmt.Errorf("pisa: unknown table %q", table)
	}
	return s.tables[ti].remove(key)
}

// ClearTable removes all entries from a table.
func (s *Switch) ClearTable(table string) error {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	ti, ok := s.compiled.tableIndex[table]
	if !ok {
		return fmt.Errorf("pisa: unknown table %q", table)
	}
	s.tables[ti].clear()
	return nil
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
	s.regMu[ri].Lock()
	v := s.regs[ri][index]
	s.regMu[ri].Unlock()
	return v, nil
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
	def := s.compiled.Program.Registers[ri]
	s.regMu[ri].Lock()
	s.regs[ri][index] = v & mask(def.Width)
	s.regMu[ri].Unlock()
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
	phv     []uint64
	valid   []bool
	payload []byte
	passes  int

	// Reusable scratch, pooled with the state.
	hashVals   []uint64
	hashWidths []int
	hashBuf    []byte
	hashData   []byte
	keyVals    []uint64
	keyWidths  []int
	keyBuf     []byte
	dests      []int
}

func (s *Switch) getExec() *execState {
	st := s.execPool.Get().(*execState)
	for i := range st.phv {
		st.phv[i] = 0
	}
	for i := range st.valid {
		st.valid[i] = false
	}
	st.payload = st.payload[:0]
	st.passes = 0
	st.dests = st.dests[:0]
	return st
}

func (s *Switch) putExec(st *execState) { s.execPool.Put(st) }

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

	st := s.getExec()
	defer s.putExec(st)

	res.Emissions = res.Emissions[:0]
	res.Passes = 0
	res.Cost = 0

	if err := s.parse(st, pkt.Data); err != nil {
		s.bump(cntParseError)
		return err
	}
	s.setMeta(st, MetaIngressPort, uint64(pkt.Port))
	s.setMeta(st, MetaTimestamp, s.now.Load())
	s.setMeta(st, MetaPktLen, uint64(len(pkt.Data)))

	maxPasses := s.compiled.Profile.MaxPasses
	for pass := 0; ; pass++ {
		st.passes = pass + 1
		s.setMeta(st, MetaPass, uint64(pass))
		s.setMeta(st, MetaRecirc, 0)
		if err := s.runOps(st, s.compiled.Program.Control, nil); err != nil {
			return err
		}
		if s.getMeta(st, MetaRecirc) == 0 {
			break
		}
		if pass+1 >= maxPasses {
			s.bump(cntRecircOverflow)
			s.setMeta(st, MetaDrop, 1)
			break
		}
	}

	stages := s.compiled.StagesPerPass() + s.compiled.Usage.EgressStages
	res.Passes = st.passes
	res.Cost = s.compiled.Profile.PacketCost(stages, st.passes, len(st.payload))
	if s.getMeta(st, MetaDrop) != 0 {
		s.bump(cntDropped)
		return nil
	}

	// Replication: copy-to-CPU plus multicast group or unicast port.
	dests := st.dests
	if s.getMeta(st, MetaToCPU) != 0 {
		dests = append(dests, CPUPort)
	}
	switch {
	case s.getMeta(st, MetaMcastGroup) != 0:
		dests = append(dests, s.mcast[s.getMeta(st, MetaMcastGroup)]...)
	case s.getMeta(st, MetaEgressPort) != 0:
		// Ports are 1-based; 0 means "no unicast decision".
		dests = append(dests, int(s.getMeta(st, MetaEgressPort)))
	default:
		if len(dests) == 0 {
			s.bump(cntNoEgress)
		}
	}
	st.dests = dests

	// Egress pipeline per replica.
	for _, port := range dests {
		est := st
		if len(dests) > 1 || len(s.compiled.Program.EgressControl) > 0 {
			cp := s.getExec()
			copy(cp.phv, st.phv)
			copy(cp.valid, st.valid)
			cp.payload = append(cp.payload[:0], st.payload...)
			est = cp
		}
		s.setMeta(est, MetaEgressPort, uint64(port)&mask(16))
		if len(s.compiled.Program.EgressControl) > 0 {
			if err := s.runOps(est, s.compiled.Program.EgressControl, nil); err != nil {
				if est != st {
					s.putExec(est)
				}
				return fmt.Errorf("egress: %w", err)
			}
			if s.getMeta(est, MetaDrop) != 0 {
				s.bump(cntEgressDropped)
				if est != st {
					s.putExec(est)
				}
				continue
			}
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
		if est != st {
			s.putExec(est)
		}
	}
	return nil
}

func (s *Switch) metaSlot(name string) int {
	return s.compiled.slots[F(MetaHeader, name)]
}

func (s *Switch) setMeta(st *execState, name string, v uint64) {
	slot := s.metaSlot(name)
	st.phv[slot] = v & mask(s.compiled.slotWidth[slot])
}

func (s *Switch) getMeta(st *execState, name string) uint64 {
	return st.phv[s.metaSlot(name)]
}

func (s *Switch) parse(st *execState, data []byte) error {
	prog := s.compiled.Program
	if len(prog.Parser) == 0 {
		st.payload = append(st.payload[:0], data...)
		return nil
	}
	rest := data
	stateName := ParserStart
	for steps := 0; ; steps++ {
		if steps > 64 {
			return fmt.Errorf("pisa: parser exceeded 64 states (loop?)")
		}
		si, ok := s.compiled.parserIndex[stateName]
		if !ok {
			return fmt.Errorf("pisa: parser transitioned to unknown state %q", stateName)
		}
		state := prog.Parser[si]
		if state.Extract != "" {
			hi := s.compiled.headerIndex[state.Extract]
			def := prog.Headers[hi]
			if len(rest) < def.Bytes() {
				return fmt.Errorf("pisa: header %s needs %d bytes, packet has %d", def.Name, def.Bytes(), len(rest))
			}
			off := 0
			for fi, slot := range s.compiled.headerSlots[hi] {
				st.phv[slot], off = unpackBits(rest, off, def.Fields[fi].Width)
			}
			st.valid[hi] = true
			rest = rest[def.Bytes():]
		}
		next := state.Default
		if state.Select != "" {
			slot := s.compiled.slots[state.Select]
			if n, ok := state.Transitions[st.phv[slot]]; ok {
				next = n
			}
		}
		if next == "" {
			break
		}
		stateName = next
	}
	st.payload = append(st.payload[:0], rest...)
	return nil
}

// appendZeros extends b with n zero bytes (deparse packs bits by OR-ing,
// so fresh bytes must be cleared).
func appendZeros(b []byte, n int) []byte {
	for i := 0; i < n; i++ {
		b = append(b, 0)
	}
	return b
}

// deparseInto serializes the valid headers and payload, appending into out.
func (s *Switch) deparseInto(st *execState, out []byte) []byte {
	prog := s.compiled.Program
	for _, name := range prog.DeparseOrder {
		hi := s.compiled.headerIndex[name]
		if !st.valid[hi] {
			continue
		}
		def := prog.Headers[hi]
		base := len(out)
		out = appendZeros(out, def.Bytes())
		off := 0
		for fi, slot := range s.compiled.headerSlots[hi] {
			w := def.Fields[fi].Width
			off = packBits(out[base:], off, st.phv[slot]&mask(w), w)
		}
	}
	return append(out, st.payload...)
}

type execFrame struct {
	params []uint64
}

// evalOperandIn resolves operands that may reference action parameters.
func (s *Switch) evalOperandIn(st *execState, o Operand, act *Action, frame *execFrame) (uint64, error) {
	if o.IsConst {
		return o.Const, nil
	}
	slot, pidx, _, err := s.compiled.lookupRef(o.Ref, act)
	if err != nil {
		return 0, err
	}
	if pidx >= 0 {
		if frame == nil || pidx >= len(frame.params) {
			return 0, fmt.Errorf("pisa: parameter %s unbound", o.Ref)
		}
		return frame.params[pidx], nil
	}
	return st.phv[slot], nil
}

func rotl(v uint64, n uint64, width int) uint64 {
	n %= uint64(width)
	m := mask(width)
	v &= m
	return ((v << n) | (v >> (uint64(width) - n))) & m
}

func (s *Switch) runOps(st *execState, ops []Op, actFrame *opContext) error {
	var act *Action
	var frame *execFrame
	if actFrame != nil {
		act, frame = actFrame.act, actFrame.frame
	}
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case OpSet, OpAdd, OpSub, OpXor, OpAnd, OpOr, OpShl, OpShr, OpRotl:
			a, err := s.evalOperandIn(st, op.A, act, frame)
			if err != nil {
				return err
			}
			var b uint64
			if op.Kind != OpSet {
				if b, err = s.evalOperandIn(st, op.B, act, frame); err != nil {
					return err
				}
			}
			slot, _, w, err := s.compiled.lookupRef(op.Dst, act)
			if err != nil {
				return err
			}
			var v uint64
			switch op.Kind {
			case OpSet:
				v = a
			case OpAdd:
				v = a + b
			case OpSub:
				v = a - b
			case OpXor:
				v = a ^ b
			case OpAnd:
				v = a & b
			case OpOr:
				v = a | b
			case OpShl:
				if b >= 64 {
					v = 0
				} else {
					v = a << b
				}
			case OpShr:
				if b >= 64 {
					v = 0
				} else {
					v = a >> b
				}
			case OpRotl:
				v = rotl(a, b, w)
			}
			st.phv[slot] = v & mask(w)
		case OpHash:
			v, err := s.execHash(st, op, act, frame)
			if err != nil {
				return err
			}
			slot, _, w, err := s.compiled.lookupRef(op.Dst, act)
			if err != nil {
				return err
			}
			st.phv[slot] = uint64(v) & mask(w)
		case OpRegRead, OpRegWrite, OpRegRMW:
			ri := s.compiled.regIndex[op.Reg]
			def := s.compiled.Program.Registers[ri]
			idx, err := s.evalOperandIn(st, op.Index, act, frame)
			if err != nil {
				return err
			}
			if idx >= uint64(def.Entries) {
				s.bump(cntRegIndexWrap)
				idx %= uint64(def.Entries)
			}
			switch op.Kind {
			case OpRegRead:
				slot, _, w, err := s.compiled.lookupRef(op.Dst, act)
				if err != nil {
					return err
				}
				s.regMu[ri].Lock()
				v := s.regs[ri][idx]
				s.regMu[ri].Unlock()
				st.phv[slot] = v & mask(w)
			case OpRegWrite:
				v, err := s.evalOperandIn(st, op.A, act, frame)
				if err != nil {
					return err
				}
				s.regMu[ri].Lock()
				s.regs[ri][idx] = v & mask(def.Width)
				s.regMu[ri].Unlock()
			case OpRegRMW:
				a, err := s.evalOperandIn(st, op.A, act, frame)
				if err != nil {
					return err
				}
				slot, _, w, err := s.compiled.lookupRef(op.Dst, act)
				if err != nil {
					return err
				}
				// Hold the bank lock across the read-modify-write: the
				// data plane's stateful ALU is atomic per packet, and the
				// replay-floor RMWMax depends on it.
				s.regMu[ri].Lock()
				old := s.regs[ri][idx]
				var next uint64
				switch op.RMW {
				case RMWAdd:
					next = old + a
				case RMWWrite:
					next = a
				case RMWMax:
					next = old
					if a > old {
						next = a
					}
				case RMWXor:
					next = old ^ a
				}
				s.regs[ri][idx] = next & mask(def.Width)
				s.regMu[ri].Unlock()
				st.phv[slot] = old & mask(w)
			}
		case OpRandom:
			slot, _, w, err := s.compiled.lookupRef(op.Dst, act)
			if err != nil {
				return err
			}
			// RandomSource implementations are concurrency-safe.
			r := s.rng.Uint64()
			st.phv[slot] = r & mask(w)
		case OpSetValid:
			hi := s.compiled.headerIndex[op.Header]
			if !st.valid[hi] {
				st.valid[hi] = true
				for _, slot := range s.compiled.headerSlots[hi] {
					st.phv[slot] = 0
				}
			}
		case OpSetInvalid:
			st.valid[s.compiled.headerIndex[op.Header]] = false
		case OpApply:
			if err := s.applyTable(st, op.Table); err != nil {
				return err
			}
		case OpIf:
			take, err := s.evalCond(st, op.Cond, act, frame)
			if err != nil {
				return err
			}
			branch := op.Then
			if !take {
				branch = op.Else
			}
			if err := s.runOps(st, branch, actFrame); err != nil {
				return err
			}
		default:
			return fmt.Errorf("pisa: runtime: unknown op kind %d", int(op.Kind))
		}
	}
	return nil
}

type opContext struct {
	act   *Action
	frame *execFrame
}

func (s *Switch) evalCond(st *execState, cond Cond, act *Action, frame *execFrame) (bool, error) {
	if cond.ValidHeader != "" {
		v := st.valid[s.compiled.headerIndex[cond.ValidHeader]]
		if cond.Negate {
			v = !v
		}
		return v, nil
	}
	l, err := s.evalOperandIn(st, cond.L, act, frame)
	if err != nil {
		return false, err
	}
	r, err := s.evalOperandIn(st, cond.R, act, frame)
	if err != nil {
		return false, err
	}
	var res bool
	switch cond.Cmp {
	case CmpEq:
		res = l == r
	case CmpNe:
		res = l != r
	case CmpLt:
		res = l < r
	case CmpLe:
		res = l <= r
	case CmpGt:
		res = l > r
	case CmpGe:
		res = l >= r
	}
	if cond.Negate {
		res = !res
	}
	return res, nil
}

func (s *Switch) execHash(st *execState, op *Op, act *Action, frame *execFrame) (uint32, error) {
	// Serialize inputs MSB-first at declared widths, then payload.
	totalBits := 0
	vals := st.hashVals[:0]
	widths := st.hashWidths[:0]
	for _, in := range op.Inputs {
		v, err := s.evalOperandIn(st, in, act, frame)
		if err != nil {
			return 0, err
		}
		w := 64
		if !in.IsConst {
			_, _, fw, _ := s.compiled.lookupRef(in.Ref, act)
			w = fw
		}
		vals = append(vals, v)
		widths = append(widths, w)
		totalBits += w
	}
	st.hashVals, st.hashWidths = vals, widths
	nbytes := (totalBits + 7) / 8
	if cap(st.hashBuf) < nbytes {
		st.hashBuf = make([]byte, nbytes)
	}
	buf := st.hashBuf[:nbytes]
	for i := range buf {
		buf[i] = 0
	}
	off := 0
	for i := range vals {
		off = packBits(buf, off, vals[i]&mask(widths[i]), widths[i])
	}
	data := buf
	if op.IncludePayload {
		st.hashData = append(append(st.hashData[:0], buf...), st.payload...)
		data = st.hashData
	}

	var key uint64
	if op.Key != nil {
		k, err := s.evalOperandIn(st, *op.Key, act, frame)
		if err != nil {
			return 0, err
		}
		key = k
	}

	switch op.Alg {
	case HashCRC32:
		if op.Key != nil {
			return s.keyedIEEE.Sum32(key, data), nil
		}
		return crc32.Checksum(data, s.crcIEEE), nil
	case HashCRC32C:
		if op.Key != nil {
			return s.keyedCast.Sum32(key, data), nil
		}
		return crc32.Checksum(data, s.crcCast), nil
	case HashIdentity:
		var v uint32
		for _, b := range data {
			v = v<<8 | uint32(b)
		}
		return v, nil
	case HashHalfSipHash:
		return s.halfsip.Sum32(key, data), nil
	default:
		return 0, fmt.Errorf("pisa: runtime: unknown hash alg %d", int(op.Alg))
	}
}

func (s *Switch) applyTable(st *execState, name string) error {
	ti := s.compiled.tableIndex[name]
	ts := s.tables[ti]
	def := ts.def
	vals := st.keyVals[:0]
	widths := st.keyWidths[:0]
	for _, k := range def.Keys {
		slot, _, w, err := s.compiled.lookupRef(k.Field, nil)
		if err != nil {
			return err
		}
		vals = append(vals, st.phv[slot])
		widths = append(widths, w)
	}
	st.keyVals, st.keyWidths = vals, widths
	entry, keyBuf := ts.lookup(vals, widths, st.keyBuf)
	st.keyBuf = keyBuf
	actionName := def.Default
	var params []uint64
	if entry != nil {
		actionName, params = entry.Action, entry.Params
	} else if actionName != "" {
		params = def.DefaultParams
	}
	if actionName == "" {
		return nil // miss with no default: no-op
	}
	a := s.compiled.Program.Action(actionName)
	if a == nil {
		return fmt.Errorf("pisa: table %s: entry references unknown action %q", name, actionName)
	}
	if len(params) != len(a.Params) {
		return fmt.Errorf("pisa: table %s action %s: %d params bound, want %d", name, actionName, len(params), len(a.Params))
	}
	return s.runOps(st, a.Body, &opContext{act: a, frame: &execFrame{params: params}})
}

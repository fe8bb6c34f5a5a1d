package pisa

import (
	"fmt"
	"slices"
	"sort"
)

// The linked form is what Compile lowers a Program into, and the only
// thing the per-packet path, stage placement and resource accounting
// read: every name is resolved once, here, so a name that does not
// resolve is a compile (or entry-install) error and never a per-packet
// one.
//
// Operands are indexes into the per-packet value file, laid out as
//
//	[ PHV slots | action parameters | constants ]
//
// so reading a field, a bound parameter or an immediate is the same
// indexed load. Slots are written by ops, the parameter window by
// applyTable, the constant tail once when the file is allocated.

// vref indexes the value file; noRef marks an absent operand.
type vref = int32

const noRef vref = -1

// opJump is the one op kind the linker adds: the branch over an else
// block that closes its then block.
const opJump = OpIf + 1

// lop flags.
const (
	flagNegate  = 1 << iota // cond: invert the result
	flagValid               // cond: header-validity test on dst
	flagElse                // if: the op before x is the jump over an else block
	flagKeyed               // hash: a holds the key
	flagPayload             // hash: append the packet payload
)

// lop is one linked op. Control flow is flat: an OpIf falls through into
// its then block or branches to x, a then block that has an else ends in
// an opJump over it, and blocks are ranges of the one code array.
type lop struct {
	kind  uint8 // OpKind, or opJump
	sub   uint8 // RMWKind, CmpKind or HashAlg
	flags uint8
	dw    uint8 // destination width in bits; results are cut to mask(dw)
	dst   int32 // PHV slot; header index (set_valid, set_invalid, valid cond); table index (apply)
	a, b  vref  // ALU and cond sources; register ops: a value, b index; hash: a key, b end of the pack plan
	x     int32 // if: else start (block end without an else); jump: target; hash: pack plan start in hashIns; register ops: register
}

// widthMask[w] is mask(w), so cutting a result to its destination is one
// load and no branch; a uint8 index needs no bounds check.
var widthMask = func() (m [256]uint64) {
	for w := range m {
		m[w] = mask(w)
	}
	return m
}()

// mask is the destination-width mask results are cut to.
func (op *lop) mask() uint64 { return widthMask[op.dw] }

// move is one step of a byte plan: a field of width bits at bit offset off
// of a header on the wire (or of a hash op's input block) and the value
// file index src it travels to or from. A field of 1, 2, 4 or 8 whole
// bytes on a byte boundary moves as one big-endian load or store (bytes is
// its size); any other field has bytes 0 and goes through the bit codec
// (loadFields and packFields in packet.go).
type move struct {
	src   vref
	off   int32
	width uint8
	bytes uint8
}

// newMove plans a field of the given width at bit offset off.
func newMove(src vref, off, width int) move {
	m := move{src: src, off: int32(off), width: uint8(width)}
	if off%8 == 0 {
		switch width {
		case 8, 16, 32, 64:
			m.bytes = uint8(width / 8)
		}
	}
	return m
}

// planBytes is the number of bytes a byte plan covers.
func planBytes(plan []move) int {
	if len(plan) == 0 {
		return 0
	}
	last := plan[len(plan)-1]
	return (int(last.off) + int(last.width) + 7) / 8
}

type span struct{ start, end int32 }

type lkey struct {
	slot  int32
	width uint8
	match uint8
}

type ltable struct {
	keys    []lkey
	exact   bool    // every key is MatchExact: entries live in the hash index
	actions []int32 // action indexes, parallel to actionNames
	nparams []int32 // parameter count of each, parallel to actions
	def     int32   // default action index, -1 = none
	// defParams is the link-time copy of Table.DefaultParams: the run
	// does not read the caller's Program.
	defParams []uint64
	// shared is the content of a table with Table.ConstEntries, which
	// every switch of the compilation uses.
	shared *tableState

	// The table's driver contract, copied from its Table: what an entry
	// is checked against (its key count is len(keys)).
	name        string
	size        int
	actionNames []string // parallel to actions
}

// lheader locates a header's fields: they occupy consecutive slots in
// declaration order, and plan moves them between the wire and those slots.
type lheader struct {
	first, n, bytes int32
	plan            []move
}

type lstate struct {
	extract int32 // header index, -1 = none
	sel     int32 // slot selecting the transition, -1 = none
	def     int32 // fallthrough state, -1 = accept
	trans   span  // range of Compiled.trans
}

type ltrans struct {
	val  uint64
	next int32 // -1 = accept
}

// Intrinsic metadata occupies numIntrinsic consecutive slots from
// Compiled.metaBase, in intrinsicMetadata() order.
const (
	mIngressPort = iota
	mEgressPort
	mDrop
	mToCPU
	mRecirc
	mMcastGroup
	mPass
	mTimestamp
	mPktLen
	numIntrinsic
)

var intrinsicMask = func() (m [numIntrinsic]uint64) {
	for i, f := range intrinsicMetadata() {
		m[i] = mask(f.Width)
	}
	return m
}()

// linker holds the name tables Compile needs only while lowering.
type linker struct {
	c       *Compiled
	slots   map[FieldRef]int32
	headers map[string]int32
	actions map[string]int32
	states  map[string]int32
	consts  map[uint64]vref
}

// link lowers prog into the linked form, reporting every unresolved name
// and ill-formed op.
func (c *Compiled) link(prog *Program) error {
	l := &linker{
		c:       c,
		slots:   make(map[FieldRef]int32),
		headers: make(map[string]int32, len(prog.Headers)),
		actions: make(map[string]int32, len(prog.Actions)),
		states:  make(map[string]int32, len(prog.Parser)),
		consts:  make(map[uint64]vref),
	}
	// Sized exactly: a compilation lives as long as the switches over it,
	// or the process (CompileOnce).
	c.headers = make([]lheader, 0, len(prog.Headers))
	c.headerNames = make([]string, 0, len(prog.Headers))
	c.regMask = make([]uint64, 0, len(prog.Registers))
	c.deparse = make([]int32, 0, len(prog.DeparseOrder))
	c.tables = make([]ltable, 0, len(prog.Tables))
	c.states = make([]lstate, 0, len(prog.Parser))
	c.actions = make([]span, 0, len(prog.Actions))
	addSlot := func(header string, f FieldDef) {
		l.slots[F(header, f.Name)] = int32(len(c.slotWidth))
		c.slotWidth = append(c.slotWidth, uint8(f.Width))
	}
	for hi, h := range prog.Headers {
		l.headers[h.Name] = int32(hi)
		lh := lheader{first: int32(len(c.slotWidth)), n: int32(len(h.Fields)), bytes: int32(h.Bytes()), plan: make([]move, 0, len(h.Fields))}
		off := 0
		for _, f := range h.Fields {
			lh.plan = append(lh.plan, newMove(int32(len(c.slotWidth)), off, f.Width))
			off += f.Width
			addSlot(h.Name, f)
		}
		c.headers = append(c.headers, lh)
		c.headerNames = append(c.headerNames, h.Name)
	}
	c.metaBase = int32(len(c.slotWidth))
	for _, f := range intrinsicMetadata() {
		addSlot(MetaHeader, f)
	}
	for _, f := range prog.Metadata {
		addSlot(MetaHeader, f)
	}
	c.paramBase = int32(len(c.slotWidth))
	c.argBase = c.paramBase
	for i, a := range prog.Actions {
		l.actions[a.Name] = int32(i)
		if end := c.paramBase + int32(len(a.Params)); end > c.argBase {
			c.argBase = end
		}
	}
	c.constBase = c.argBase + int32(len(prog.Args))
	for i, s := range prog.Parser {
		l.states[s.Name] = int32(i)
	}
	for _, r := range prog.Registers {
		c.regMask = append(c.regMask, mask(r.Width))
	}
	for _, name := range prog.DeparseOrder {
		c.deparse = append(c.deparse, l.headers[name])
	}

	for _, t := range prog.Tables {
		lt := ltable{
			name: t.Name, size: t.Size, actionNames: slices.Clone(t.Actions),
			exact: true, def: -1, keys: make([]lkey, 0, len(t.Keys)),
			actions: make([]int32, 0, len(t.Actions)), nparams: make([]int32, 0, len(t.Actions)),
		}
		for _, k := range t.Keys {
			slot, w, err := l.lookupRef(k.Field, nil)
			if err != nil {
				return fmt.Errorf("table %s: %w", t.Name, err)
			}
			lt.keys = append(lt.keys, lkey{slot: slot, width: uint8(w), match: uint8(k.Match)})
			lt.exact = lt.exact && k.Match == MatchExact
		}
		for _, an := range t.Actions {
			ai := l.actions[an]
			lt.actions = append(lt.actions, ai)
			lt.nparams = append(lt.nparams, int32(len(prog.Actions[ai].Params)))
		}
		if t.Default != "" {
			lt.def = l.actions[t.Default]
			if err := checkParamCount(t.Name, t.Default, len(t.DefaultParams), len(prog.Actions[lt.def].Params)); err != nil {
				return err
			}
			lt.defParams = append([]uint64(nil), t.DefaultParams...)
		}
		c.tables = append(c.tables, lt)
		if t.ConstEntries != nil {
			if err := bindConst(t.ConstEntries, &c.tables[len(c.tables)-1]); err != nil {
				return err
			}
		}
	}
	for _, s := range prog.Parser {
		ls := lstate{extract: -1, sel: -1, def: l.stateRef(s.Default), trans: span{start: int32(len(c.trans))}}
		if s.Extract != "" {
			ls.extract = l.headers[s.Extract]
		}
		if s.Select != "" {
			slot, _, err := l.lookupRef(s.Select, nil)
			if err != nil {
				return fmt.Errorf("parser state %s: %w", s.Name, err)
			}
			ls.sel = slot
			for v, next := range s.Transitions {
				c.trans = append(c.trans, ltrans{val: v, next: l.stateRef(next)})
			}
			tr := c.trans[ls.trans.start:]
			sort.Slice(tr, func(i, j int) bool { return tr[i].val < tr[j].val })
		}
		ls.trans.end = int32(len(c.trans))
		c.states = append(c.states, ls)
	}
	c.startState = l.stateRef(ParserStart)

	var err error
	if c.control, err = l.lowerBlock(prog.Control, nil); err != nil {
		return err
	}
	if c.egress, err = l.lowerBlock(prog.EgressControl, nil); err != nil {
		return fmt.Errorf("egress: %w", err)
	}
	for _, a := range prog.Actions {
		body, err := l.lowerBlock(a.Body, a)
		if err != nil {
			return fmt.Errorf("action %s: %w", a.Name, err)
		}
		c.actions = append(c.actions, body)
	}
	c.consts = make([]uint64, len(l.consts))
	for v, ref := range l.consts {
		c.consts[ref-c.constBase] = v
	}
	// What could not be sized up front gives back its append slack.
	c.slotWidth = append([]uint8(nil), c.slotWidth...)
	c.code = append([]lop(nil), c.code...)
	c.hashIns = append([]move(nil), c.hashIns...)
	c.trans = append([]ltrans(nil), c.trans...)
	return nil
}

// checkParamCount rejects a parameter list that does not fit the action it
// is bound to (a table entry's, or the table's default).
func checkParamCount(table, action string, got, want int) error {
	if got != want {
		return fmt.Errorf("pisa: table %s action %s: %d params bound, want %d", table, action, got, want)
	}
	return nil
}

// stateRef resolves a parser state name; "" (and the start state of a
// parser-less program) accepts the packet.
func (l *linker) stateRef(name string) int32 {
	if s, ok := l.states[name]; ok {
		return s
	}
	return -1
}

// lookupRef resolves a field reference in the context of an action's
// parameter frame (act may be nil) to its value-file index and width.
func (l *linker) lookupRef(ref FieldRef, act *Action) (vref, int, error) {
	hdr, fld, err := ref.split()
	if err != nil {
		return noRef, 0, err
	}
	if hdr == ParamHeader {
		if act == nil {
			return noRef, 0, fmt.Errorf("pisa: %s referenced outside an action", ref)
		}
		for i, p := range act.Params {
			if p.Name == fld {
				return l.c.paramBase + int32(i), p.Width, nil
			}
		}
		return noRef, 0, fmt.Errorf("pisa: action %s has no parameter %q", act.Name, fld)
	}
	if hdr == ArgHeader {
		for i, a := range l.c.args {
			if a.Name == fld {
				return l.c.argBase + int32(i), a.Width, nil
			}
		}
		return noRef, 0, fmt.Errorf("pisa: program has no arg %q", fld)
	}
	s, ok := l.slots[ref]
	if !ok {
		return noRef, 0, fmt.Errorf("pisa: unknown field %s", ref)
	}
	return s, int(l.c.slotWidth[s]), nil
}

// operand resolves an op source; constants are pooled into the value
// file's tail and are 64 bits wide.
func (l *linker) operand(o Operand, act *Action) (vref, int, error) {
	if !o.IsConst {
		return l.lookupRef(o.Ref, act)
	}
	ref, ok := l.consts[o.Const]
	if !ok {
		ref = l.c.constBase + int32(len(l.consts))
		l.consts[o.Const] = ref
	}
	return ref, 64, nil
}

const maxNesting = 16

func (l *linker) lowerBlock(ops []Op, act *Action) (span, error) {
	start := int32(len(l.c.code))
	err := l.lowerList(ops, act, 0)
	return span{start, int32(len(l.c.code))}, err
}

func (l *linker) lowerList(ops []Op, act *Action, depth int) error {
	if depth > maxNesting {
		return fmt.Errorf("pisa: control flow nested deeper than %d", maxNesting)
	}
	for i := range ops {
		if err := l.lowerOp(&ops[i], act, depth); err != nil {
			return fmt.Errorf("op %d (%s): %w", i, ops[i].Kind, err)
		}
	}
	return nil
}

// lowerOp appends the linked form of one op. The resolution steps run in
// a fixed order and the first failure wins, so a program with several
// mistakes reports the same one every time.
func (l *linker) lowerOp(op *Op, act *Action, depth int) error {
	c := l.c
	out := lop{kind: uint8(op.Kind), a: noRef, b: noRef}
	var err error
	fail := func(format string, args ...any) {
		if err == nil {
			err = fmt.Errorf(format, args...)
		}
	}
	src := func(o Operand, into *vref) (width int) {
		if err == nil {
			*into, width, err = l.operand(o, act)
		}
		return width
	}
	dst := func() {
		var w int
		if err == nil {
			out.dst, w, err = l.lookupRef(op.Dst, act)
		}
		if err == nil && out.dst >= c.paramBase {
			fail("pisa: cannot write to action parameter or arg %s", op.Dst)
		}
		if err == nil && op.Kind == OpRotl && w > c.Profile.ALUWidth {
			fail("pisa: rotate on %d-bit field exceeds %d-bit ALU", w, c.Profile.ALUWidth)
		}
		out.dw = uint8(w)
	}
	reg := func() {
		ri, ok := c.regIndex[op.Reg]
		if !ok {
			fail("pisa: unknown register %q", op.Reg)
		}
		out.x = int32(ri)
	}
	header := func(name, what string) {
		hi, ok := l.headers[name]
		if !ok {
			fail("pisa: %sunknown header %q", what, name)
		}
		out.dst = hi
	}

	switch op.Kind {
	case OpRandom:
		dst()
	case OpSet:
		dst()
		src(op.A, &out.a)
	case OpAdd, OpSub, OpXor, OpAnd, OpOr, OpShl, OpShr, OpRotl:
		dst()
		src(op.A, &out.a)
		src(op.B, &out.b)
	case OpHash:
		dst()
		if op.Alg == HashHalfSipHash && !c.Profile.AllowExterns {
			fail("pisa: extern hash %s not available on target %s", op.Alg, c.Profile.Name)
		}
		if op.Alg < HashCRC32 || op.Alg > HashHalfSipHash {
			fail("pisa: unknown hash algorithm %d", int(op.Alg))
		}
		out.sub = uint8(op.Alg)
		if op.Key != nil {
			src(*op.Key, &out.a)
			out.flags |= flagKeyed
		}
		if len(op.Inputs) == 0 && !op.IncludePayload {
			fail("pisa: hash with no inputs")
		}
		if op.IncludePayload {
			out.flags |= flagPayload
		}
		// The pack plan: inputs MSB-first at their declared widths.
		out.x = int32(len(c.hashIns))
		off := 0
		for _, in := range op.Inputs {
			var ref vref
			w := src(in, &ref)
			c.hashIns = append(c.hashIns, newMove(ref, off, w))
			off += w
		}
		out.b = int32(len(c.hashIns))
	case OpRegRead:
		dst()
		reg()
		src(op.Index, &out.b)
	case OpRegRMW:
		dst()
		reg()
		if op.RMW < RMWAdd || op.RMW > RMWXor {
			fail("pisa: unknown RMW kind %d", int(op.RMW))
		}
		out.sub = uint8(op.RMW)
		src(op.Index, &out.b)
		src(op.A, &out.a)
	case OpRegWrite:
		reg()
		src(op.Index, &out.b)
		src(op.A, &out.a)
	case OpSetValid, OpSetInvalid:
		header(op.Header, "")
	case OpApply:
		if act != nil {
			fail("pisa: table apply inside an action")
		}
		ti, ok := c.tableIndex[op.Table]
		if !ok {
			fail("pisa: unknown table %q", op.Table)
		}
		out.dst = int32(ti)
	case OpIf:
		cond := op.Cond
		if cond.Negate {
			out.flags |= flagNegate
		}
		if cond.ValidHeader != "" {
			out.flags |= flagValid
			header(cond.ValidHeader, "condition on ")
		} else {
			if cond.Cmp < CmpEq || cond.Cmp > CmpGe {
				fail("pisa: condition with invalid comparison %d", int(cond.Cmp))
			}
			out.sub = uint8(cond.Cmp)
			src(cond.L, &out.a)
			src(cond.R, &out.b)
		}
	default:
		fail("pisa: unknown op kind %d", int(op.Kind))
	}
	if err != nil {
		return err
	}
	at := len(c.code)
	c.code = append(c.code, out)
	if op.Kind != OpIf {
		return nil
	}

	// if: [cond] then... ([jump] else...)
	if err := l.lowerList(op.Then, act, depth+1); err != nil {
		return err
	}
	if len(op.Else) > 0 {
		jump := len(c.code)
		c.code = append(c.code, lop{kind: uint8(opJump)})
		c.code[at].flags |= flagElse
		c.code[at].x = int32(len(c.code))
		if err := l.lowerList(op.Else, act, depth+1); err != nil {
			return err
		}
		c.code[jump].x = int32(len(c.code))
	} else {
		c.code[at].x = int32(len(c.code))
	}
	return nil
}

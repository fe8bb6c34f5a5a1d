package pisa

import (
	"fmt"
	"slices"
	"sync"
)

// Usage is the resource consumption of a compiled program, in absolute
// units of the Profile's capacities.
type Usage struct {
	PHVBits    int
	SRAMBlocks int
	TCAMBlocks int
	HashBits   int
	HashCalls  int
	Stages     int
	// EgressStages is the stage count of the egress pipeline (0 if the
	// program has no egress control).
	EgressStages int
	Passes       int
}

// UsagePercent is Usage normalized against a profile's capacities, as the
// Tofino compiler reports it (Table II).
type UsagePercent struct {
	PHV, SRAM, TCAM, Hash float64
}

// Percent normalizes the usage against the profile.
func (u Usage) Percent(p Profile) UsagePercent {
	pct := func(used, cap int) float64 {
		if cap <= 0 {
			return 0
		}
		return 100 * float64(used) / float64(cap)
	}
	return UsagePercent{
		PHV:  pct(u.PHVBits, p.PHVBits),
		SRAM: pct(u.SRAMBlocks, p.SRAMBlocks),
		TCAM: pct(u.TCAMBlocks, p.TCAMBlocks),
		Hash: pct(u.HashBits, p.HashBits),
	}
}

// Compiled is a program linked and placed against a target profile. It
// keeps the linked form, the const table entries, the catalog and the
// program's interface (name, args, registers, each table's driver
// contract), all copied at Compile: the source Program stays the
// caller's, and nothing here reaches it. A Compiled is read-only once
// Compile returns, so any number of switches may share one
// (NewSwitchFromCompiled, CompileOnce).
type Compiled struct {
	// headerNames maps a header index to its name, for parse errors. It
	// leads because field offsets size the per-packet functions' code:
	// placed beside headers it moves process and packFields off their
	// 64-byte phase in the benchmark binary.
	headerNames []string

	Profile Profile
	Usage   Usage

	// The program's interface.
	name      string
	args      []FieldDef
	registers []RegisterDef

	// Name -> index, for the driver API and the linker.
	tableIndex map[string]int
	regIndex   map[string]int

	// The linked form (see link.go).
	slotWidth  []uint8 // PHV slot -> width in bits
	metaBase   int32   // first intrinsic-metadata slot
	paramBase  int32   // end of the PHV slots, start of the parameter window
	argBase    int32   // start of the switch's Program.Args values
	constBase  int32   // start of the constant tail
	consts     []uint64
	code       []lop
	hashIns    []move
	control    span
	egress     span
	actions    []span // action index -> body
	tables     []ltable
	headers    []lheader
	states     []lstate
	trans      []ltrans
	startState int32
	deparse    []int32 // header indexes in wire order
	regMask    []uint64

	// catalog is what Catalog builds, kept with the compilation.
	catalogOnce sync.Once
	catalog     any
}

// Catalog returns the compilation's control-plane catalog (p4rt's
// p4info), which build derives from the compilation on the first call
// only: every switch of the compilation shares one catalog, and it lives
// exactly as long as the compilation. Its one builder is p4rt.InfoOf.
func (c *Compiled) Catalog(build func(*Compiled) any) any {
	c.catalogOnce.Do(func() { c.catalog = build(c) })
	return c.catalog
}

// Name returns the program's name.
func (c *Compiled) Name() string { return c.name }

// Registers returns a copy of the program's register definitions, in
// declaration order (p4rt.InfoOf catalogs them).
func (c *Compiled) Registers() []RegisterDef { return slices.Clone(c.registers) }

// nominal hash-input contribution of including the payload in a digest.
const payloadHashBits = 128

// exact-match entry overhead bits (pointers, version bits).
const exactEntryOverheadBits = 16

// Compile validates a program against a profile, links it, allocates
// stages, and accounts resources. It is the analogue of running the
// target's P4 compiler and reading its resource summary.
func Compile(prog *Program, profile Profile) (*Compiled, error) {
	if err := prog.validate(); err != nil {
		return nil, err
	}
	c := &Compiled{
		Profile:    profile,
		name:       prog.Name,
		args:       slices.Clone(prog.Args),
		registers:  make([]RegisterDef, len(prog.Registers)),
		tableIndex: make(map[string]int, len(prog.Tables)),
		regIndex:   make(map[string]int, len(prog.Registers)),
	}
	for i, t := range prog.Tables {
		c.tableIndex[t.Name] = i
	}
	for i, r := range prog.Registers {
		c.registers[i] = *r
		c.regIndex[r.Name] = i
	}
	if err := c.link(prog); err != nil {
		return nil, err
	}
	if err := c.account(prog); err != nil {
		return nil, err
	}
	return c, nil
}

// compiledOnce holds CompileOnce's compilations, keyed by onceKey. It
// has no eviction: every distinct configuration stays for the life of the
// process, also after the last switch over it is gone.
var compiledOnce sync.Map

type onceKey struct {
	key     any
	profile Profile
}

// CompileOnce compiles the program build returns for the profile once per
// process: the first call for (key, profile) builds and compiles, and
// every later call returns the same *Compiled. The key must cover every
// input of build, so that a hit is exactly what a fresh build would give.
// Errors are returned, never cached.
func CompileOnce[K comparable](key K, profile Profile, build func() (*Program, error)) (*Compiled, error) {
	k := onceKey{key, profile}
	if c, ok := compiledOnce.Load(k); ok {
		return c.(*Compiled), nil
	}
	prog, err := build()
	if err != nil {
		return nil, err
	}
	c, err := Compile(prog, profile)
	if err != nil {
		return nil, fmt.Errorf("pisa: compile %s for %s: %w", prog.Name, profile.Name, err)
	}
	shared, _ := compiledOnce.LoadOrStore(k, c)
	return shared.(*Compiled), nil
}

func containerBits(width int) int {
	switch {
	case width <= 8:
		return 8
	case width <= 16:
		return 16
	case width <= 32:
		return 32
	default:
		return 64
	}
}

// --- stage allocation and resource accounting ---

// stagePacker greedily packs ops into stages respecting ALU, hash, and
// write-read dependency constraints.
type stagePacker struct {
	profile Profile

	stages    int
	aluUsed   int
	hashCalls int
	hashBits  int
	marks     *stageMarks
	stage     uint32 // this packer's current stage's stamp
}

// stageMarks records which slots a stage wrote: slot s was written in the
// stage stamped st iff at[s] == st. One set, indexed by value-file slot,
// serves every packer of a Compile: each stage of each packer draws a
// fresh stamp, so a nested block's writes never read as its enclosing
// block's. A nested write may overwrite an enclosing mark only harmlessly:
// the enclosing packer places table actions at the start of a fresh stage
// and starts a new stage after an If's branches.
type stageMarks struct {
	at   []uint32
	last uint32
}

func (m *stageMarks) fresh() uint32 {
	m.last++
	return m.last
}

func newStagePacker(p Profile, m *stageMarks) *stagePacker {
	return &stagePacker{profile: p, stages: 1, marks: m, stage: m.fresh()}
}

func (sp *stagePacker) nextStage() {
	sp.stages++
	sp.aluUsed = 0
	sp.hashCalls = 0
	sp.hashBits = 0
	sp.stage = sp.marks.fresh()
}

func (sp *stagePacker) write(dst int32) { sp.marks.at[dst] = sp.stage }

// readsWritten reports whether any source was written earlier in the
// current stage (parameters, args, constants and noRef never are).
func (sp *stagePacker) readsWritten(srcs ...vref) bool {
	for _, s := range srcs {
		if s != noRef && sp.marks.at[s] == sp.stage {
			return true
		}
	}
	return false
}

// regAccess counts per-pass register touches, by register index, for the
// hardware constraint.
type regAccess []int

func (ra regAccess) merge(other regAccess) {
	for r, n := range other {
		if n > ra[r] {
			ra[r] = n
		}
	}
}

// placeBlock packs a block into a fresh packer and returns the stages it
// took and the registers it touched.
func (c *Compiled) placeBlock(b span, m *stageMarks) (int, regAccess) {
	sp := newStagePacker(c.Profile, m)
	regs := make(regAccess, len(c.registers))
	c.placeOps(sp, b, regs)
	return sp.stages, regs
}

// placeOps packs a block of linked ops. regs accumulates register access
// counts; hash usage accumulates in c.Usage.
func (c *Compiled) placeOps(sp *stagePacker, b span, regs regAccess) {
	for pc := b.start; pc < b.end; pc++ {
		op := &c.code[pc]
		switch OpKind(op.kind) {
		case OpSet, OpRandom, OpAdd, OpSub, OpXor, OpAnd, OpOr, OpShl, OpShr, OpRotl:
			cost := 1
			if int(op.dw) > c.Profile.ALUWidth {
				cost = 2
			}
			if sp.readsWritten(op.a, op.b) || sp.aluUsed+cost > sp.profile.ALUOpsPerStage {
				sp.nextStage()
			}
			sp.aluUsed += cost
			sp.write(op.dst)
		case OpHash:
			bits := 0
			conflict := false
			if op.flags&flagKeyed != 0 {
				bits += 64
				conflict = sp.readsWritten(op.a)
			}
			for _, in := range c.hashIns[op.x:op.b] {
				bits += int(in.width)
				conflict = conflict || sp.readsWritten(in.src)
			}
			if op.flags&flagPayload != 0 {
				bits += payloadHashBits
			}
			if conflict ||
				sp.hashCalls+1 > sp.profile.HashCallsPerStage ||
				sp.hashBits+bits > sp.profile.HashBitsPerStage {
				sp.nextStage()
			}
			sp.hashCalls++
			sp.hashBits += bits
			c.Usage.HashCalls++
			c.Usage.HashBits += bits
			sp.write(op.dst)
		case OpRegRead, OpRegWrite, OpRegRMW:
			regs[op.x]++
			if sp.readsWritten(op.a, op.b) || sp.aluUsed+1 > sp.profile.ALUOpsPerStage {
				sp.nextStage()
			}
			sp.aluUsed++
			if OpKind(op.kind) != OpRegWrite {
				sp.write(op.dst)
			}
		case OpSetValid, OpSetInvalid:
			if sp.aluUsed+1 > sp.profile.ALUOpsPerStage {
				sp.nextStage()
			}
			sp.aluUsed++
		case OpApply:
			lt := &c.tables[op.dst]
			// A table occupies a fresh stage: its match happens at stage
			// entry, its action ops execute within (and possibly beyond).
			sp.nextStage()
			// Exact tables hash their key.
			if lt.exact {
				keyBits := lt.keyBits()
				sp.hashCalls++
				sp.hashBits += keyBits
				c.Usage.HashBits += keyBits
			}
			// Deepest action bound: all permitted actions (and the
			// default) must fit.
			deepest := 0
			place := func(ai int32) {
				inner, innerRegs := c.placeBlock(c.actions[ai], sp.marks)
				if inner-1 > deepest {
					deepest = inner - 1
				}
				regs.merge(innerRegs)
			}
			for _, ai := range lt.actions {
				place(ai)
			}
			if lt.def >= 0 {
				place(lt.def)
			}
			for j := 0; j < deepest; j++ {
				sp.nextStage()
			}
		case OpIf:
			// Both branches execute in the same stage window; the deeper
			// branch determines progress. Register accesses merge as max.
			then, els := span{pc + 1, op.x}, span{op.x, op.x}
			if op.flags&flagElse != 0 {
				then.end--
				els.end = c.code[then.end].x // the jump over the else block
			}
			deeper, thenRegs := c.placeBlock(then, sp.marks)
			elseStages, elseRegs := c.placeBlock(els, sp.marks)
			if elseStages > deeper {
				deeper = elseStages
			}
			for j := 0; j < deeper; j++ {
				sp.nextStage()
			}
			thenRegs.merge(elseRegs)
			regs.merge(thenRegs)
			pc = els.end - 1
		}
	}
}

func (lt *ltable) keyBits() int {
	bits := 0
	for _, k := range lt.keys {
		bits += int(k.width)
	}
	return bits
}

func (c *Compiled) account(prog *Program) error {
	// PHV.
	for _, w := range c.slotWidth {
		c.Usage.PHVBits += containerBits(int(w))
	}
	if c.Usage.PHVBits > c.Profile.PHVBits {
		return fmt.Errorf("pisa: program needs %d PHV bits, target %s has %d", c.Usage.PHVBits, c.Profile.Name, c.Profile.PHVBits)
	}

	// Tables: SRAM or TCAM.
	for ti := range c.tables {
		lt := &c.tables[ti]
		keyBits := lt.keyBits()
		actionDataBits := 0
		for _, ai := range lt.actions {
			bits := 0
			for _, p := range prog.Actions[ai].Params {
				bits += p.Width
			}
			if bits > actionDataBits {
				actionDataBits = bits
			}
		}
		if lt.exact {
			entryBits := keyBits + actionDataBits + exactEntryOverheadBits
			blocks := (lt.size*entryBits + SRAMBlockBits - 1) / SRAMBlockBits
			if blocks < 1 {
				blocks = 1
			}
			c.Usage.SRAMBlocks += blocks
		} else {
			blocks := ((lt.size + TCAMBlockEntries - 1) / TCAMBlockEntries) *
				((keyBits + TCAMBlockKeyBits - 1) / TCAMBlockKeyBits)
			if blocks < 1 {
				blocks = 1
			}
			c.Usage.TCAMBlocks += blocks
			// Action data for TCAM tables still lives in SRAM.
			if actionDataBits > 0 {
				blocks := (lt.size*actionDataBits + SRAMBlockBits - 1) / SRAMBlockBits
				if blocks < 1 {
					blocks = 1
				}
				c.Usage.SRAMBlocks += blocks
			}
		}
	}

	// Registers.
	for _, r := range c.registers {
		w := 32
		if r.Width > 32 {
			w = 64
		}
		blocks := (r.Entries*w + SRAMBlockBits - 1) / SRAMBlockBits
		if blocks < 1 {
			blocks = 1
		}
		c.Usage.SRAMBlocks += blocks
	}
	if c.Usage.SRAMBlocks > c.Profile.SRAMBlocks {
		return fmt.Errorf("pisa: program needs %d SRAM blocks, target %s has %d", c.Usage.SRAMBlocks, c.Profile.Name, c.Profile.SRAMBlocks)
	}
	if c.Usage.TCAMBlocks > c.Profile.TCAMBlocks {
		return fmt.Errorf("pisa: program needs %d TCAM blocks, target %s has %d", c.Usage.TCAMBlocks, c.Profile.Name, c.Profile.TCAMBlocks)
	}

	// Stages (hash usage accumulates inside placeOps).
	marks := &stageMarks{at: make([]uint32, int(c.constBase)+len(c.consts))}
	stages, regs := c.placeBlock(c.control, marks)
	egStages, egRegs := c.placeBlock(c.egress, marks)
	if c.egress.end > c.egress.start {
		if egStages > c.Profile.Stages {
			return fmt.Errorf("pisa: egress pipeline needs %d stages, target %s has %d (no egress recirculation)",
				egStages, c.Profile.Name, c.Profile.Stages)
		}
		c.Usage.EgressStages = egStages
	}
	if c.Profile.StrictRegisterAccess {
		name := func(r int) string { return c.registers[r].Name }
		for r, n := range regs {
			if n > 1 {
				return fmt.Errorf("pisa: register %q accessed %d times per pass; target %s allows one", name(r), n, c.Profile.Name)
			}
		}
		for r, n := range egRegs {
			if n > 1 {
				return fmt.Errorf("pisa: register %q accessed %d times per egress pass; target %s allows one", name(r), n, c.Profile.Name)
			}
			// Ingress and egress MAUs do not share register memory.
			if n > 0 && regs[r] > 0 {
				return fmt.Errorf("pisa: register %q used in both ingress and egress pipelines on target %s", name(r), c.Profile.Name)
			}
		}
	}
	if c.Usage.HashBits > c.Profile.HashBits {
		return fmt.Errorf("pisa: program needs %d hash bits, target %s has %d", c.Usage.HashBits, c.Profile.Name, c.Profile.HashBits)
	}

	c.Usage.Stages = stages
	c.Usage.Passes = (stages + c.Profile.Stages - 1) / c.Profile.Stages
	if c.Usage.Passes > c.Profile.MaxPasses {
		return fmt.Errorf("pisa: program needs %d stages = %d passes; target %s allows %d passes",
			stages, c.Usage.Passes, c.Profile.Name, c.Profile.MaxPasses)
	}
	return nil
}

// StagesPerPass returns how many stages one pass of the compiled program
// occupies (capped at the profile's stage count).
func (c *Compiled) StagesPerPass() int {
	if c.Usage.Stages > c.Profile.Stages {
		return c.Profile.Stages
	}
	return c.Usage.Stages
}

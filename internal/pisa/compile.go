package pisa

import "fmt"

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

// Compiled is a program linked and placed against a target profile.
type Compiled struct {
	Program *Program
	Profile Profile
	Usage   Usage

	// Name -> index, for the driver API and the linker.
	tableIndex map[string]int
	regIndex   map[string]int

	// The linked form (see link.go).
	slotWidth  []uint8 // PHV slot -> width in bits
	metaBase   int32   // first intrinsic-metadata slot
	paramBase  int32   // end of the PHV slots, start of the parameter window
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
}

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
		Program:    prog,
		Profile:    profile,
		tableIndex: make(map[string]int, len(prog.Tables)),
		regIndex:   make(map[string]int, len(prog.Registers)),
	}
	for i, t := range prog.Tables {
		c.tableIndex[t.Name] = i
	}
	for i, r := range prog.Registers {
		c.regIndex[r.Name] = i
	}
	if err := c.link(); err != nil {
		return nil, err
	}
	if err := c.account(); err != nil {
		return nil, err
	}
	return c, nil
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
	written   map[int32]bool // slots written in the current stage
}

func newStagePacker(p Profile) *stagePacker {
	return &stagePacker{profile: p, stages: 1, written: make(map[int32]bool)}
}

func (sp *stagePacker) nextStage() {
	sp.stages++
	sp.aluUsed = 0
	sp.hashCalls = 0
	sp.hashBits = 0
	clear(sp.written)
}

// readsWritten reports whether any source was written earlier in the
// current stage (parameters, constants and noRef never are).
func (sp *stagePacker) readsWritten(srcs ...vref) bool {
	for _, s := range srcs {
		if sp.written[s] {
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
func (c *Compiled) placeBlock(b span) (*stagePacker, regAccess) {
	sp := newStagePacker(c.Profile)
	regs := make(regAccess, len(c.Program.Registers))
	c.placeOps(sp, b, regs)
	return sp, regs
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
			sp.written[op.dst] = true
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
			sp.written[op.dst] = true
		case OpRegRead, OpRegWrite, OpRegRMW:
			regs[op.x]++
			if sp.readsWritten(op.a, op.b) || sp.aluUsed+1 > sp.profile.ALUOpsPerStage {
				sp.nextStage()
			}
			sp.aluUsed++
			if OpKind(op.kind) != OpRegWrite {
				sp.written[op.dst] = true
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
				inner, innerRegs := c.placeBlock(c.actions[ai])
				if inner.stages-1 > deepest {
					deepest = inner.stages - 1
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
			thenSP, thenRegs := c.placeBlock(then)
			elseSP, elseRegs := c.placeBlock(els)
			deeper := thenSP.stages
			if elseSP.stages > deeper {
				deeper = elseSP.stages
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

func (c *Compiled) account() error {
	// PHV.
	for _, w := range c.slotWidth {
		c.Usage.PHVBits += containerBits(int(w))
	}
	if c.Usage.PHVBits > c.Profile.PHVBits {
		return fmt.Errorf("pisa: program needs %d PHV bits, target %s has %d", c.Usage.PHVBits, c.Profile.Name, c.Profile.PHVBits)
	}

	// Tables: SRAM or TCAM.
	for ti, t := range c.Program.Tables {
		lt := &c.tables[ti]
		keyBits := lt.keyBits()
		actionDataBits := 0
		for _, ai := range lt.actions {
			bits := 0
			for _, p := range c.Program.Actions[ai].Params {
				bits += p.Width
			}
			if bits > actionDataBits {
				actionDataBits = bits
			}
		}
		if lt.exact {
			entryBits := keyBits + actionDataBits + exactEntryOverheadBits
			blocks := (t.Size*entryBits + SRAMBlockBits - 1) / SRAMBlockBits
			if blocks < 1 {
				blocks = 1
			}
			c.Usage.SRAMBlocks += blocks
		} else {
			blocks := ((t.Size + TCAMBlockEntries - 1) / TCAMBlockEntries) *
				((keyBits + TCAMBlockKeyBits - 1) / TCAMBlockKeyBits)
			if blocks < 1 {
				blocks = 1
			}
			c.Usage.TCAMBlocks += blocks
			// Action data for TCAM tables still lives in SRAM.
			if actionDataBits > 0 {
				blocks := (t.Size*actionDataBits + SRAMBlockBits - 1) / SRAMBlockBits
				if blocks < 1 {
					blocks = 1
				}
				c.Usage.SRAMBlocks += blocks
			}
		}
	}

	// Registers.
	for _, r := range c.Program.Registers {
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
	sp, regs := c.placeBlock(c.control)
	egSP, egRegs := c.placeBlock(c.egress)
	if c.egress.end > c.egress.start {
		if egSP.stages > c.Profile.Stages {
			return fmt.Errorf("pisa: egress pipeline needs %d stages, target %s has %d (no egress recirculation)",
				egSP.stages, c.Profile.Name, c.Profile.Stages)
		}
		c.Usage.EgressStages = egSP.stages
	}
	if c.Profile.StrictRegisterAccess {
		name := func(r int) string { return c.Program.Registers[r].Name }
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

	c.Usage.Stages = sp.stages
	c.Usage.Passes = (sp.stages + c.Profile.Stages - 1) / c.Profile.Stages
	if c.Usage.Passes > c.Profile.MaxPasses {
		return fmt.Errorf("pisa: program needs %d stages = %d passes; target %s allows %d passes",
			sp.stages, c.Usage.Passes, c.Profile.Name, c.Profile.MaxPasses)
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

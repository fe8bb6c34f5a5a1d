package pisa

import "fmt"

// RegisterDef declares a stateful register array. Widths above the target
// ALU width are realized as paired entries and charged accordingly.
type RegisterDef struct {
	Name    string
	Width   int // bits per entry, 1..64
	Entries int
}

// ParserState is one state of the programmable parser. The start state is
// named "start". A state optionally extracts a header, then either accepts
// (empty Select and Default) or branches on a field value.
type ParserState struct {
	Name string
	// Extract is the header to extract in this state ("" = none).
	Extract string
	// Select is the field whose value chooses the next state ("" = always
	// take Default).
	Select FieldRef
	// Transitions maps select values to next-state names.
	Transitions map[uint64]string
	// Default is the fallthrough state name; "" accepts the packet.
	Default string
}

// ParserStart is the entry state name.
const ParserStart = "start"

// Program is the P4-level description of a data plane: headers, parser,
// tables, actions, registers, and the control flow applied to every packet.
type Program struct {
	Name string

	Headers  []*HeaderDef
	Metadata []FieldDef // user metadata, in addition to the intrinsics

	// Args are per-switch constants, read as ArgHeader fields and never
	// written. Each switch binds its own values (WithArg), so switches
	// that differ only in their args share one compilation. An arg is
	// accounted as a constant: it takes no PHV and no stage.
	Args []FieldDef

	Parser []ParserState

	// DeparseOrder lists header names in wire order for emission. Valid
	// headers are emitted in this order followed by the payload.
	DeparseOrder []string

	Actions   []*Action
	Tables    []*Table
	Registers []*RegisterDef

	// Control is the per-pass ingress control flow.
	Control []Op

	// EgressControl runs once per emitted replica (unicast, each multicast
	// copy, and copy-to-CPU), after replication, with MetaEgressPort set
	// to the replica's port. As on hardware, the egress pipeline may not
	// recirculate and may not touch registers the ingress pipeline uses.
	EgressControl []Op
}

// Header returns the header definition by name, or nil.
func (p *Program) Header(name string) *HeaderDef {
	for _, h := range p.Headers {
		if h.Name == name {
			return h
		}
	}
	return nil
}

// Table returns the table definition by name, or nil.
func (p *Program) Table(name string) *Table {
	for _, t := range p.Tables {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// Action returns the action definition by name, or nil.
func (p *Program) Action(name string) *Action {
	for _, a := range p.Actions {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Register returns the register definition by name, or nil.
func (p *Program) Register(name string) *RegisterDef {
	for _, r := range p.Registers {
		if r.Name == name {
			return r
		}
	}
	return nil
}

func (p *Program) validate() error {
	if p.Name == "" {
		return fmt.Errorf("pisa: program needs a name")
	}
	seenH := map[string]bool{MetaHeader: true, ParamHeader: true, ArgHeader: true}
	for _, h := range p.Headers {
		if err := h.validate(); err != nil {
			return err
		}
		if seenH[h.Name] {
			return fmt.Errorf("pisa: duplicate or reserved header name %q", h.Name)
		}
		seenH[h.Name] = true
	}
	seenM := make(map[string]bool)
	for _, m := range intrinsicMetadata() {
		seenM[m.Name] = true
	}
	for _, m := range p.Metadata {
		if m.Width < 1 || m.Width > 64 {
			return fmt.Errorf("pisa: metadata %s: width %d out of range", m.Name, m.Width)
		}
		if seenM[m.Name] {
			return fmt.Errorf("pisa: duplicate or reserved metadata field %q", m.Name)
		}
		seenM[m.Name] = true
	}
	seenArg := make(map[string]bool)
	for _, a := range p.Args {
		if a.Width < 1 || a.Width > 64 {
			return fmt.Errorf("pisa: arg %s: width %d out of range", a.Name, a.Width)
		}
		if seenArg[a.Name] {
			return fmt.Errorf("pisa: duplicate arg %q", a.Name)
		}
		seenArg[a.Name] = true
	}
	seenA := make(map[string]bool)
	for _, a := range p.Actions {
		if seenA[a.Name] {
			return fmt.Errorf("pisa: duplicate action %q", a.Name)
		}
		seenA[a.Name] = true
	}
	seenT := make(map[string]bool)
	for _, t := range p.Tables {
		if seenT[t.Name] {
			return fmt.Errorf("pisa: duplicate table %q", t.Name)
		}
		seenT[t.Name] = true
		if t.Size < 1 {
			return fmt.Errorf("pisa: table %s: size must be positive", t.Name)
		}
		if len(t.Keys) == 0 {
			return fmt.Errorf("pisa: table %s: needs at least one key", t.Name)
		}
		for _, an := range t.Actions {
			if p.Action(an) == nil {
				return fmt.Errorf("pisa: table %s: unknown action %q", t.Name, an)
			}
		}
		if t.Default != "" && p.Action(t.Default) == nil {
			return fmt.Errorf("pisa: table %s: unknown default action %q", t.Name, t.Default)
		}
	}
	seenR := make(map[string]bool)
	for _, r := range p.Registers {
		if seenR[r.Name] {
			return fmt.Errorf("pisa: duplicate register %q", r.Name)
		}
		seenR[r.Name] = true
		if r.Width < 1 || r.Width > 64 {
			return fmt.Errorf("pisa: register %s: width %d out of range", r.Name, r.Width)
		}
		if r.Entries < 1 {
			return fmt.Errorf("pisa: register %s: needs at least one entry", r.Name)
		}
	}
	if err := p.validateParser(); err != nil {
		return err
	}
	for _, name := range p.DeparseOrder {
		if p.Header(name) == nil {
			return fmt.Errorf("pisa: deparse order names unknown header %q", name)
		}
	}
	return nil
}

func (p *Program) validateParser() error {
	if len(p.Parser) == 0 {
		return nil // header-less programs are legal (pure metadata pipelines)
	}
	names := make(map[string]bool, len(p.Parser))
	for _, s := range p.Parser {
		if names[s.Name] {
			return fmt.Errorf("pisa: duplicate parser state %q", s.Name)
		}
		names[s.Name] = true
		if s.Extract != "" && p.Header(s.Extract) == nil {
			return fmt.Errorf("pisa: parser state %s extracts unknown header %q", s.Name, s.Extract)
		}
	}
	if !names[ParserStart] {
		return fmt.Errorf("pisa: parser has no %q state", ParserStart)
	}
	for _, s := range p.Parser {
		for v, next := range s.Transitions {
			if next != "" && !names[next] {
				return fmt.Errorf("pisa: parser state %s: transition on %#x to unknown state %q", s.Name, v, next)
			}
		}
		if s.Default != "" && !names[s.Default] {
			return fmt.Errorf("pisa: parser state %s: unknown default state %q", s.Name, s.Default)
		}
	}
	return nil
}

package pisa

import (
	"fmt"
	"sort"
	"strings"
)

// Dump renders a program as pseudo-P4 for inspection (cmd/p4auth-inspect
// -dump). The output is deterministic.
func Dump(p *Program) string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s\n\n", p.Name)

	for _, h := range p.Headers {
		fmt.Fprintf(&b, "header %s { ", h.Name)
		for i, f := range h.Fields {
			if i > 0 {
				b.WriteString("; ")
			}
			fmt.Fprintf(&b, "%s:%d", f.Name, f.Width)
		}
		fmt.Fprintf(&b, " }  // %d bytes\n", h.Bytes())
	}
	for _, block := range []struct {
		name   string
		fields []FieldDef
	}{{"metadata", p.Metadata}, {"args", p.Args}} {
		if len(block.fields) == 0 {
			continue
		}
		fmt.Fprintf(&b, "%s { ", block.name)
		for i, f := range block.fields {
			if i > 0 {
				b.WriteString("; ")
			}
			fmt.Fprintf(&b, "%s:%d", f.Name, f.Width)
		}
		b.WriteString(" }\n")
	}
	b.WriteByte('\n')

	if len(p.Parser) > 0 {
		b.WriteString("parser {\n")
		for _, s := range p.Parser {
			fmt.Fprintf(&b, "  state %s", s.Name)
			if s.Extract != "" {
				fmt.Fprintf(&b, " extract(%s)", s.Extract)
			}
			if s.Select != "" {
				fmt.Fprintf(&b, " select(%s)", s.Select)
				keys := make([]uint64, 0, len(s.Transitions))
				for v := range s.Transitions {
					keys = append(keys, v)
				}
				sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
				for _, v := range keys {
					fmt.Fprintf(&b, " %#x->%s", v, s.Transitions[v])
				}
			}
			if s.Default != "" {
				fmt.Fprintf(&b, " default->%s", s.Default)
			}
			b.WriteByte('\n')
		}
		b.WriteString("}\n\n")
	}

	for _, r := range p.Registers {
		fmt.Fprintf(&b, "register %s: %d x %d bits\n", r.Name, r.Entries, r.Width)
	}
	if len(p.Registers) > 0 {
		b.WriteByte('\n')
	}

	for _, a := range p.Actions {
		fmt.Fprintf(&b, "action %s(", a.Name)
		for i, prm := range a.Params {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s:%d", prm.Name, prm.Width)
		}
		b.WriteString(") {\n")
		dumpOps(&b, a.Body, 1)
		b.WriteString("}\n")
	}
	if len(p.Actions) > 0 {
		b.WriteByte('\n')
	}

	for _, t := range p.Tables {
		fmt.Fprintf(&b, "table %s {\n  key = {", t.Name)
		for i, k := range t.Keys {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, " %s:%s", k.Field, k.Match)
		}
		fmt.Fprintf(&b, " }\n  actions = { %s }\n  size = %d\n", strings.Join(t.Actions, ", "), t.Size)
		if t.Default != "" {
			fmt.Fprintf(&b, "  default = %s\n", t.Default)
		}
		b.WriteString("}\n")
	}
	if len(p.Tables) > 0 {
		b.WriteByte('\n')
	}

	b.WriteString("control ingress {\n")
	dumpOps(&b, p.Control, 1)
	b.WriteString("}\n")
	if len(p.EgressControl) > 0 {
		b.WriteString("control egress {\n")
		dumpOps(&b, p.EgressControl, 1)
		b.WriteString("}\n")
	}
	return b.String()
}

func dumpOps(b *strings.Builder, ops []Op, depth int) {
	ind := strings.Repeat("  ", depth)
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case OpIf:
			fmt.Fprintf(b, "%sif (%s) {\n", ind, condString(op.Cond))
			dumpOps(b, op.Then, depth+1)
			if len(op.Else) > 0 {
				fmt.Fprintf(b, "%s} else {\n", ind)
				dumpOps(b, op.Else, depth+1)
			}
			fmt.Fprintf(b, "%s}\n", ind)
		case OpApply:
			fmt.Fprintf(b, "%sapply(%s)\n", ind, op.Table)
		case OpHash:
			var ins []string
			if op.Key != nil {
				ins = append(ins, "key="+op.Key.String())
			}
			for _, in := range op.Inputs {
				ins = append(ins, in.String())
			}
			if op.IncludePayload {
				ins = append(ins, "payload")
			}
			fmt.Fprintf(b, "%s%s = %s(%s)\n", ind, op.Dst, op.Alg, strings.Join(ins, ", "))
		case OpRegRead:
			fmt.Fprintf(b, "%s%s = %s[%s]\n", ind, op.Dst, op.Reg, op.Index)
		case OpRegWrite:
			fmt.Fprintf(b, "%s%s[%s] = %s\n", ind, op.Reg, op.Index, op.A)
		case OpRegRMW:
			verb := map[RMWKind]string{RMWAdd: "+=", RMWWrite: ":=", RMWMax: "max="}[op.RMW]
			fmt.Fprintf(b, "%s%s = rmw %s[%s] %s %s\n", ind, op.Dst, op.Reg, op.Index, verb, op.A)
		case OpRandom:
			fmt.Fprintf(b, "%s%s = random()\n", ind, op.Dst)
		case OpSetValid:
			fmt.Fprintf(b, "%s%s.setValid()\n", ind, op.Header)
		case OpSetInvalid:
			fmt.Fprintf(b, "%s%s.setInvalid()\n", ind, op.Header)
		case OpSet:
			fmt.Fprintf(b, "%s%s = %s\n", ind, op.Dst, op.A)
		default:
			sym := map[OpKind]string{
				OpAdd: "+", OpSub: "-", OpXor: "^", OpAnd: "&", OpOr: "|",
				OpShl: "<<", OpShr: ">>", OpRotl: "<<<",
			}[op.Kind]
			if sym == "" {
				fmt.Fprintf(b, "%s%s ???\n", ind, op.Kind)
				continue
			}
			fmt.Fprintf(b, "%s%s = %s %s %s\n", ind, op.Dst, op.A, sym, op.B)
		}
	}
}

func condString(c Cond) string {
	if c.ValidHeader != "" {
		if c.Negate {
			return "!" + c.ValidHeader + ".isValid()"
		}
		return c.ValidHeader + ".isValid()"
	}
	sym := map[CmpKind]string{
		CmpEq: "==", CmpNe: "!=", CmpLt: "<", CmpLe: "<=", CmpGt: ">", CmpGe: ">=",
	}[c.Cmp]
	s := fmt.Sprintf("%s %s %s", c.L, sym, c.R)
	if c.Negate {
		return "!(" + s + ")"
	}
	return s
}

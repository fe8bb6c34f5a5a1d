package pisa

import "slices"

// RaceEnabled lets the external test package skip its alloc-count guards
// under -race, as the internal ones do.
const RaceEnabled = raceEnabled

// CheckCompiledPlans holds every byte plan of a compiled program equal to
// the bit-at-a-time reference codec (see packet_test.go).
var CheckCompiledPlans = checkCompiledPlans

// HasHeader reports whether the compiled program declares the header.
func HasHeader(c *Compiled, name string) bool {
	return slices.Contains(c.headerNames, name)
}

// WalkParser follows the compilation's linked parser from the start
// state for at most 16 states and returns the bytes of the headers it
// extracts. Each field takes next(), cut to 4 bits when intn(2) draws 0
// and to its width; the field a state selects on takes one of that
// state's transition values instead unless intn(8) draws 0, so the
// packet reaches the deep states instead of dying at the first select.
func WalkParser(c *Compiled, next func() uint64, intn func(int) int) []byte {
	vals := make([]uint64, c.constBase)
	var out []byte
	for si, steps := c.startState, 0; si >= 0 && steps < 16; steps++ {
		st := &c.states[si]
		trans := c.trans[st.trans.start:st.trans.end]
		if st.extract >= 0 {
			h := &c.headers[st.extract]
			buf := make([]byte, h.bytes)
			for _, m := range h.plan {
				v := next()
				if intn(2) == 0 {
					v &= 0xf
				}
				v &= mask(int(m.width))
				if m.src == st.sel && len(trans) > 0 && intn(8) != 0 {
					v = trans[intn(len(trans))].val
				}
				vals[m.src] = v
				packBits(buf, int(m.off), v, int(m.width))
			}
			out = append(out, buf...)
		}
		si = st.def
		if st.sel >= 0 {
			for _, tr := range trans {
				if tr.val == vals[st.sel] {
					si = tr.next
					break
				}
			}
		}
	}
	return out
}

// BankWords returns how many storage words each register of the switch
// holds, in declaration order.
func BankWords(s *Switch) []int {
	words := make([]int, len(s.regs))
	for i, bank := range s.regs {
		words[i] = len(bank)
	}
	return words
}

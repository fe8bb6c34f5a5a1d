package pisa

import "fmt"

// MatchKind is a table match type.
type MatchKind int

// Match kinds. Exact tables consume SRAM; ternary tables consume TCAM; LPM
// is implemented in TCAM on the modeled targets.
const (
	MatchExact MatchKind = iota + 1
	MatchTernary
	MatchLPM
)

func (m MatchKind) String() string {
	switch m {
	case MatchExact:
		return "exact"
	case MatchTernary:
		return "ternary"
	case MatchLPM:
		return "lpm"
	default:
		return fmt.Sprintf("MatchKind(%d)", int(m))
	}
}

// TableKey is one component of a table's match key.
type TableKey struct {
	Field FieldRef
	Match MatchKind
}

// Action is a named parameterized action. Parameter values from the
// matching entry are visible to Body ops as fields of the reserved header
// "param" (e.g. F("param", "port")).
type Action struct {
	Name   string
	Params []FieldDef
	Body   []Op
}

// ParamHeader is the reserved pseudo-header exposing action parameters.
const ParamHeader = "param"

// Table declares a match-action table.
type Table struct {
	Name    string
	Keys    []TableKey
	Size    int      // maximum entries; drives SRAM/TCAM accounting
	Actions []string // permitted action names
	// Default is the action run on a miss (empty = no-op). DefaultParams
	// supplies its parameters.
	Default       string
	DefaultParams []uint64
}

// KeyMatch is one key component of a table entry.
type KeyMatch struct {
	Value uint64
	// Mask applies to ternary keys (0 mask = wildcard everything).
	Mask uint64
	// PrefixLen applies to LPM keys.
	PrefixLen int
}

// EKey builds an exact-match key component.
func EKey(v uint64) KeyMatch { return KeyMatch{Value: v, Mask: ^uint64(0)} }

// TKey builds a ternary key component.
func TKey(v, mask uint64) KeyMatch { return KeyMatch{Value: v, Mask: mask} }

// PKey builds an LPM key component.
func PKey(v uint64, prefixLen int) KeyMatch { return KeyMatch{Value: v, PrefixLen: prefixLen} }

// Entry is a runtime table entry, installed through the driver interface.
type Entry struct {
	Key      []KeyMatch
	Priority int // higher wins among ternary matches
	Action   string
	Params   []uint64
}

// boundEntry is an installed entry with its action resolved.
type boundEntry struct {
	key      []KeyMatch
	params   []uint64
	priority int
	action   int32 // index into Compiled.actions
}

// tableState is the runtime content of one table.
type tableState struct {
	def *Table
	lt  *ltable
	// exact index: concatenated key values -> entry
	exact map[string]*boundEntry
	// ordered entries for ternary/lpm scan
	scan []*boundEntry
}

func newTableState(c *Compiled, ti int) *tableState {
	return &tableState{def: c.Program.Tables[ti], lt: &c.tables[ti], exact: make(map[string]*boundEntry)}
}

// appendKeyPart appends one key value, big-endian, to the exact-match map
// key bytes.
func appendKeyPart(b []byte, v uint64) []byte {
	return append(b,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func exactKeyString(key []KeyMatch) string {
	b := make([]byte, 0, len(key)*8)
	for _, k := range key {
		b = appendKeyPart(b, k.Value)
	}
	return string(b)
}

func (ts *tableState) insert(e Entry) error {
	if len(e.Key) != len(ts.def.Keys) {
		return fmt.Errorf("pisa: table %s: entry has %d key parts, want %d", ts.def.Name, len(e.Key), len(ts.def.Keys))
	}
	ec := &boundEntry{priority: e.Priority, action: -1}
	for i, a := range ts.def.Actions {
		if a == e.Action {
			if err := checkParamCount(ts.def.Name, a, len(e.Params), int(ts.lt.nparams[i])); err != nil {
				return err
			}
			ec.action = ts.lt.actions[i]
			break
		}
	}
	if ec.action < 0 {
		return fmt.Errorf("pisa: table %s: action %q not permitted", ts.def.Name, e.Action)
	}
	if ts.entryCount() >= ts.def.Size {
		return fmt.Errorf("pisa: table %s: full (%d entries)", ts.def.Name, ts.def.Size)
	}
	ec.key = append([]KeyMatch(nil), e.Key...)
	ec.params = append([]uint64(nil), e.Params...)
	if ts.lt.exact {
		ts.exact[exactKeyString(ec.key)] = ec
		return nil
	}
	ts.scan = append(ts.scan, ec)
	return nil
}

func (ts *tableState) entryCount() int {
	if ts.lt.exact {
		return len(ts.exact)
	}
	return len(ts.scan)
}

// lookup finds the entry matching the key fields in the value file, or nil
// on miss. keyBuf is caller-owned scratch for the exact-match key bytes;
// the (possibly grown) buffer is returned so the caller can keep it.
func (ts *tableState) lookup(vals []uint64, keyBuf []byte) (*boundEntry, []byte) {
	if ts.lt.exact {
		keyBuf = keyBuf[:0]
		for _, k := range ts.lt.keys {
			keyBuf = appendKeyPart(keyBuf, vals[k.slot])
		}
		// string(keyBuf) in the index expression does not allocate.
		return ts.exact[string(keyBuf)], keyBuf
	}
	var best *boundEntry
	bestPrio, bestPrefix := -1, -1
	for _, e := range ts.scan {
		if !ts.entryMatches(e, vals) {
			continue
		}
		prefix := 0
		for i, k := range ts.lt.keys {
			if MatchKind(k.match) == MatchLPM {
				prefix += e.key[i].PrefixLen
			}
		}
		if prefix > bestPrefix || (prefix == bestPrefix && e.priority > bestPrio) {
			best, bestPrio, bestPrefix = e, e.priority, prefix
		}
	}
	return best, keyBuf
}

func (ts *tableState) entryMatches(e *boundEntry, vals []uint64) bool {
	for i, k := range ts.lt.keys {
		km, v := e.key[i], vals[k.slot]
		switch MatchKind(k.match) {
		case MatchExact:
			if v != km.Value {
				return false
			}
		case MatchTernary:
			if v&km.Mask != km.Value&km.Mask {
				return false
			}
		case MatchLPM:
			w := int(k.width)
			if km.PrefixLen > w {
				return false
			}
			m := mask(w) &^ mask(w-km.PrefixLen)
			if v&m != km.Value&m {
				return false
			}
		}
	}
	return true
}

func (ts *tableState) clear() {
	ts.exact = make(map[string]*boundEntry)
	ts.scan = nil
}

// keysEqual reports whether two entry keys are identical component-wise.
func keysEqual(a, b []KeyMatch) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (ts *tableState) remove(key []KeyMatch) error {
	if len(key) != len(ts.def.Keys) {
		return fmt.Errorf("pisa: table %s: delete key has %d parts, want %d", ts.def.Name, len(key), len(ts.def.Keys))
	}
	if ts.lt.exact {
		ks := exactKeyString(key)
		if _, ok := ts.exact[ks]; !ok {
			return fmt.Errorf("pisa: table %s: no entry for key", ts.def.Name)
		}
		delete(ts.exact, ks)
		return nil
	}
	for i, e := range ts.scan {
		if keysEqual(e.key, key) {
			ts.scan = append(ts.scan[:i], ts.scan[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("pisa: table %s: no entry for key", ts.def.Name)
}

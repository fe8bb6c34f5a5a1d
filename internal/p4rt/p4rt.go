// Package p4rt models the p4info catalog of a programmable switch: it
// names data-plane objects, giving registers the numeric IDs the
// controller uses and the names the SDK resolves.
package p4rt

import (
	"fmt"

	"p4auth/internal/pisa"
)

// RegisterInfo describes one register in p4info.
type RegisterInfo struct {
	ID      uint32
	Name    string
	Width   int
	Entries int
}

// P4Info is the compiled program's object catalog.
type P4Info struct {
	Program   string
	Registers []RegisterInfo

	byID   map[uint32]*RegisterInfo
	byName map[string]*RegisterInfo
}

// registerIDBase matches the P4Runtime convention of prefixing object IDs
// with a resource-type byte.
const registerIDBase = 0x05000000

// RegisterID is the p4info ID of the register a program declares at
// index i: IDs follow declaration order.
func RegisterID(i int) uint32 { return registerIDBase + uint32(i) + 1 }

// InfoOf returns the compilation's p4info. It is built once per
// compilation and shared by every switch of it, so it lives exactly as
// long as the compilation does; callers only read it.
func InfoOf(c *pisa.Compiled) *P4Info {
	return c.Catalog(func(c *pisa.Compiled) any { return newInfo(c.Name(), c.Registers()) }).(*P4Info)
}

// newInfo catalogs a program's registers, assigning register IDs
// deterministically in declaration order.
func newInfo(program string, regs []pisa.RegisterDef) *P4Info {
	info := &P4Info{
		Program: program,
		byID:    make(map[uint32]*RegisterInfo),
		byName:  make(map[string]*RegisterInfo),
	}
	for i, r := range regs {
		info.Registers = append(info.Registers, RegisterInfo{
			ID:      RegisterID(i),
			Name:    r.Name,
			Width:   r.Width,
			Entries: r.Entries,
		})
	}
	for i := range info.Registers {
		ri := &info.Registers[i]
		info.byID[ri.ID] = ri
		info.byName[ri.Name] = ri
	}
	return info
}

// RegisterByID resolves a register ID, as the switch SDK does.
func (p *P4Info) RegisterByID(id uint32) (*RegisterInfo, error) {
	ri, ok := p.byID[id]
	if !ok {
		return nil, fmt.Errorf("p4rt: unknown register id %#x", id)
	}
	return ri, nil
}

// RegisterByName resolves a register name, as the controller does when it
// loads p4info.
func (p *P4Info) RegisterByName(name string) (*RegisterInfo, error) {
	ri, ok := p.byName[name]
	if !ok {
		return nil, fmt.Errorf("p4rt: unknown register %q", name)
	}
	return ri, nil
}

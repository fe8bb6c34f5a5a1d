//go:build go1.24

package pisa_test

import (
	"runtime"
	"testing"
	"time"

	"p4auth/internal/core"
	"p4auth/internal/p4rt"
	"p4auth/internal/pisa"
)

// TestCompileOnceDropsTheSource: once CompileOnce returns, nothing of the
// compilation reaches the source Program, so the collector frees it, and
// the compilation still verifies and applies a signed register write
// whose register ID its p4info resolves.
func TestCompileOnceDropsTheSource(t *testing.T) {
	cfg := core.DefaultConfig(4, core.DigestCRC32)
	freed := make(chan struct{})
	c, err := pisa.CompileOnce(new(int), pisa.TofinoProfile(), func() (*pisa.Program, error) {
		prog := &pisa.Program{
			Name:         "dropped_source",
			Headers:      []*pisa.HeaderDef{core.PTypeHeader()},
			Parser:       []pisa.ParserState{{Name: pisa.ParserStart, Extract: core.HdrPType}},
			DeparseOrder: []string{core.HdrPType},
			Registers:    []*pisa.RegisterDef{{Name: "host_reg", Width: 64, Entries: 8}},
		}
		runtime.AddCleanup(prog, func(ch chan struct{}) { close(ch) }, freed)
		return prog, core.AddToProgram(prog, cfg, core.Integration{Exposed: []string{"host_reg"}})
	})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	select {
	case <-freed: // cleanups run on their own goroutine, after the collection
	case <-time.After(5 * time.Second):
		t.Fatal("the source Program is still reachable after CompileOnce returned")
	}

	sw := pisa.NewSwitchFromCompiled(c)
	if err := core.Boot(sw, cfg); err != nil {
		t.Fatal(err)
	}
	ri, err := p4rt.InfoOf(c).RegisterByName("host_reg")
	if err != nil {
		t.Fatal(err)
	}
	dig, err := cfg.Digester()
	if err != nil {
		t.Fatal(err)
	}
	key, ver, err := core.NewKeyStore(cfg.Ports, cfg.Seed).Current(core.KeyIndexLocal)
	if err != nil {
		t.Fatal(err)
	}
	m := core.Message{
		Header: core.Header{HdrType: core.HdrRegister, MsgType: core.MsgWriteReq, SeqNum: 1, KeyVersion: ver},
		Reg:    &core.RegPayload{RegID: ri.ID, Index: 3, Value: 0xfeed},
	}
	if err := m.Sign(dig, key); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Process(pisa.Packet{Data: m.AppendEncode(nil), Port: pisa.CPUPort}); err != nil {
		t.Fatal(err)
	}
	if v, err := sw.RegisterRead("host_reg", 3); err != nil || v != 0xfeed {
		t.Fatalf("host_reg[3] = %#x, %v after a signed write of 0xfeed", v, err)
	}
}

package sketch

import (
	"testing"
	"testing/quick"

	"p4auth/internal/pisa"
)

// cmsProgram builds a test pipeline: packets carry a 32-bit key, and
// each one updates the sketch. The pre-increment estimate lands in a
// result register.
func cmsProgram(t *testing.T, c *CMS) *pisa.Switch {
	t.Helper()
	prog := &pisa.Program{
		Name: "cms_test",
		Headers: []*pisa.HeaderDef{{Name: "q", Fields: []pisa.FieldDef{
			{Name: "key", Width: 32},
		}}},
		Parser:       []pisa.ParserState{{Name: pisa.ParserStart, Extract: "q"}},
		DeparseOrder: []string{"q"},
		Registers:    []*pisa.RegisterDef{{Name: "result", Width: 32, Entries: 1}},
	}
	c.AddToProgram(prog)
	key := pisa.R(pisa.F("q", "key"))
	prog.Control = append(c.UpdateOps(key),
		pisa.RegWrite("result", pisa.C(0), pisa.R(pisa.F(pisa.MetaHeader, c.MinMeta()))),
		pisa.Forward(pisa.C(1)),
	)
	sw, err := pisa.NewSwitch(prog, pisa.BMv2Profile())
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

func cmsPacket(t *testing.T, key uint32) []byte {
	t.Helper()
	def := &pisa.HeaderDef{Name: "q", Fields: []pisa.FieldDef{{Name: "key", Width: 32}}}
	b, err := pisa.PackHeader(def, []uint64{uint64(key)})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCMSCountsInPipeline(t *testing.T) {
	c, err := NewCMS("cms", 3, 256)
	if err != nil {
		t.Fatal(err)
	}
	sw := cmsProgram(t, c)
	mirror := NewMirror(c)

	// Update key 7 twice, then key 42 five times.
	for i := 0; i < 2; i++ {
		if _, err := sw.Process(pisa.Packet{Data: cmsPacket(t, 7), Port: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if _, err := sw.Process(pisa.Packet{Data: cmsPacket(t, 42), Port: 1}); err != nil {
			t.Fatal(err)
		}
	}

	// Every row counts the last update once, so the pipeline's
	// pre-increment estimate is one below the mirror's driver-side one.
	q42, _ := sw.RegisterRead("result", 0)
	m42, err := mirror.Estimate(sw, 42)
	if err != nil {
		t.Fatal(err)
	}
	if q42+1 != m42 {
		t.Fatalf("pipeline estimate %d before the last update, mirror %d after it", q42, m42)
	}
	// CMS guarantees: estimate >= true count.
	if m42 < 5 {
		t.Fatalf("estimate %d below true count 5", m42)
	}
	if m7, _ := mirror.Estimate(sw, 7); m7 < 2 {
		t.Fatalf("estimate %d below true count 2", m7)
	}
	// An unseen key usually reads 0 with this load factor.
	if m9, _ := mirror.Estimate(sw, 0xFFFF_0009); m9 > 2 {
		t.Errorf("unseen key estimate %d suspiciously high", m9)
	}
}

func TestCMSClearResets(t *testing.T) {
	c, err := NewCMS("cms", 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	sw := cmsProgram(t, c)
	mirror := NewMirror(c)
	for i := 0; i < 10; i++ {
		if _, err := sw.Process(pisa.Packet{Data: cmsPacket(t, 1), Port: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := mirror.Clear(sw); err != nil {
		t.Fatal(err)
	}
	if v, _ := mirror.Estimate(sw, 1); v != 0 {
		t.Fatalf("estimate %d after clear", v)
	}
}

func TestCMSOverestimatesNeverUnder(t *testing.T) {
	c, err := NewCMS("cms", 4, 128)
	if err != nil {
		t.Fatal(err)
	}
	sw := cmsProgram(t, c)
	mirror := NewMirror(c)
	truth := map[uint32]uint64{}
	f := func(key uint32, times uint8) bool {
		n := uint64(times%4) + 1
		for i := uint64(0); i < n; i++ {
			if _, err := sw.Process(pisa.Packet{Data: cmsPacket(t, key), Port: 1}); err != nil {
				return false
			}
		}
		truth[key] += n
		est, err := mirror.Estimate(sw, key)
		if err != nil {
			return false
		}
		return est >= truth[key]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCMSValidation(t *testing.T) {
	if _, err := NewCMS("x", 0, 64); err == nil {
		t.Error("0 rows must fail")
	}
	if _, err := NewCMS("x", 2, 100); err == nil {
		t.Error("non-power-of-two cols must fail")
	}
}

func TestBloomInPipeline(t *testing.T) {
	b, err := NewBloom("bf", 3, 512)
	if err != nil {
		t.Fatal(err)
	}
	prog := &pisa.Program{
		Name: "bloom_test",
		Headers: []*pisa.HeaderDef{{Name: "q", Fields: []pisa.FieldDef{
			{Name: "op", Width: 8},
			{Name: "key", Width: 32},
		}}},
		Parser:       []pisa.ParserState{{Name: pisa.ParserStart, Extract: "q"}},
		DeparseOrder: []string{"q"},
		Registers:    []*pisa.RegisterDef{{Name: "result", Width: 8, Entries: 1}},
	}
	b.AddToProgram(prog)
	key := pisa.R(pisa.F("q", "key"))
	prog.Control = []pisa.Op{
		pisa.If(pisa.Eq(pisa.R(pisa.F("q", "op")), pisa.C(0)), b.InsertOps(key), b.TestOps(key)),
		pisa.RegWrite("result", pisa.C(0), pisa.R(pisa.F(pisa.MetaHeader, b.HitMeta()))),
		pisa.Forward(pisa.C(1)),
	}
	sw, err := pisa.NewSwitch(prog, pisa.BMv2Profile())
	if err != nil {
		t.Fatal(err)
	}
	mirror := NewBloomMirror(b)

	send := func(op uint8, key uint32) uint64 {
		def := &pisa.HeaderDef{Name: "q", Fields: []pisa.FieldDef{
			{Name: "op", Width: 8}, {Name: "key", Width: 32},
		}}
		data, _ := pisa.PackHeader(def, []uint64{uint64(op), uint64(key)})
		if _, err := sw.Process(pisa.Packet{Data: data, Port: 1}); err != nil {
			t.Fatal(err)
		}
		v, _ := sw.RegisterRead("result", 0)
		return v
	}

	send(0, 1234) // insert
	if hit := send(1, 1234); hit != 1 {
		t.Fatal("inserted key not found")
	}
	if ok, _ := mirror.Test(sw, 1234); !ok {
		t.Fatal("mirror disagrees on inserted key")
	}
	if hit := send(1, 9999); hit != 0 {
		t.Error("absent key reported present (possible but unlikely at this load)")
	}
	if err := mirror.Clear(sw); err != nil {
		t.Fatal(err)
	}
	if hit := send(1, 1234); hit != 0 {
		t.Error("key present after clear")
	}
}

func TestBloomNoFalseNegativesQuick(t *testing.T) {
	b, err := NewBloom("bf", 2, 1024)
	if err != nil {
		t.Fatal(err)
	}
	// Driver-level property via the mirror only (no pipeline needed):
	// inserted keys always test positive.
	prog := &pisa.Program{Name: "bf_only"}
	b.AddToProgram(prog)
	sw, err := pisa.NewSwitch(prog, pisa.BMv2Profile())
	if err != nil {
		t.Fatal(err)
	}
	mirror := NewBloomMirror(b)
	f := func(key uint32) bool {
		for h, idx := range mirror.Indexes(key) {
			if err := sw.RegisterWrite(b.rowReg(h), idx, 1); err != nil {
				return false
			}
		}
		ok, err := mirror.Test(sw, key)
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBloomValidation(t *testing.T) {
	if _, err := NewBloom("x", 9, 64); err == nil {
		t.Error("too many hashes must fail")
	}
	if _, err := NewBloom("x", 2, 3); err == nil {
		t.Error("non-power-of-two bits must fail")
	}
}

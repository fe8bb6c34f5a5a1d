package pisa_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"p4auth/internal/app"
	"p4auth/internal/blink"
	"p4auth/internal/core"
	"p4auth/internal/deploy"
	"p4auth/internal/flowradar"
	"p4auth/internal/hula"
	"p4auth/internal/netcache"
	"p4auth/internal/netwarden"
	"p4auth/internal/pisa"
	"p4auth/internal/routescout"
	"p4auth/internal/silkroad"
	"p4auth/internal/sketch"
	"p4auth/internal/switchos"
)

// The differential corpus pins the interpreter's observable behaviour on
// the programs the repository actually runs: every emission (port and
// bytes), pass count, modeled cost, error string, diagnostic counter and
// register entry that a seeded stream of valid, tampered, replayed,
// truncated, grammar-walked and random packets produces is folded into
// the digests in testdata/corpus.golden. A change to how the pipeline
// executes (as opposed to what it computes) must leave that file
// byte-identical. Regenerate, for a reviewed behaviour change only, with
//
//	GOLDEN_UPDATE=1 go test -run TestDifferentialCorpus ./internal/pisa/
const (
	corpusGolden     = "testdata/corpus.golden"
	corpusPackets    = 512
	corpusCheckpoint = 128
	corpusSeed       = 0x9e3779b97f4a7c15
)

// corpusRNG is a splitmix64 stream: the corpus must not move with the
// standard library's generators.
type corpusRNG uint64

func (r *corpusRNG) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *corpusRNG) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *corpusRNG) bytes(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(r.next())
	}
	return b
}

// corpusSubject is one booted switch plus what the generator needs to
// craft packets its program accepts.
type corpusSubject struct {
	name  string
	host  *switchos.Host
	cfg   core.Config
	ports int
	// extra crafts a subject-specific valid packet (HULA probes and data);
	// nil falls back to the grammar walk.
	extra func(r *corpusRNG) pisa.Packet
}

func corpusSubjects(t *testing.T) []*corpusSubject {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	var out []*corpusSubject
	add := func(name string, host *switchos.Host, cfg core.Config, ports int) *corpusSubject {
		s := &corpusSubject{name: name, host: host, cfg: cfg, ports: ports}
		out = append(out, s)
		return s
	}
	for _, insecure := range []bool{false, true} {
		name := "p4auth-secure"
		if insecure {
			name = "p4auth-insecure"
		}
		sw, err := deploy.Build(deploy.SwitchSpec{
			Name: "pin", Ports: 4, Insecure: insecure,
			Registers: []*pisa.RegisterDef{{Name: "host_reg", Width: 64, Entries: 64}},
		})
		must(err)
		add(name, sw.Host, sw.Cfg, 4)
	}
	for _, secure := range []bool{true, false} {
		name := "hula-insecure"
		if secure {
			name = "hula-secure"
		}
		const ports = probePorts
		hs, keys := newKeyedHula(t, secure)
		seqs := make([]uint32, ports+1)
		s := add(name, hs.Host, hs.Cfg, ports)
		s.extra = func(r *corpusRNG) pisa.Packet {
			port := 1 + r.intn(ports)
			dst := uint16(r.intn(6))
			if r.intn(4) == 0 {
				data, err := hula.DataPacket(dst, uint32(r.next()), r.intn(24))
				must(err)
				return pisa.Packet{Data: data, Port: port}
			}
			body, err := pisa.PackHeader(&pisa.HeaderDef{Name: "probe", Fields: []pisa.FieldDef{
				{Name: "dst", Width: 16}, {Name: "util", Width: 32},
			}}, []uint64{uint64(dst), r.next() & 0x7fffffff})
			must(err)
			if !secure {
				return pisa.Packet{Data: append([]byte{hula.PTypeInsecureProbe}, body...), Port: port}
			}
			dig, err := hs.Cfg.Digester()
			must(err)
			seqs[port]++
			m := core.Message{
				Header: core.Header{HdrType: core.HdrFeedback, MsgType: core.MsgProbe, SeqNum: seqs[port]},
				Aux:    body,
			}
			must(m.Sign(dig, keys[port]))
			return pisa.Packet{Data: m.AppendEncode(nil), Port: port}
		}
	}

	// The seven standalone Table I applications (HULA above is the eighth
	// hosted app), each on the switch its own constructor boots.
	nc, err := netcache.New(netcache.DefaultParams(true))
	must(err)
	add("netcache", nc.Host, nc.Cfg, 4)
	nw, err := netwarden.New(netwarden.DefaultParams(true))
	must(err)
	add("netwarden", nw.Host, nw.Cfg, 4)
	sr, err := silkroad.New(silkroad.DefaultParams(true))
	must(err)
	add("silkroad", sr.Host, sr.Cfg, 4)
	fr, err := flowradar.New(flowradar.DefaultParams(true))
	must(err)
	add("flowradar", fr.Host, fr.Cfg, 4)
	bl, err := blink.New(blink.DefaultParams(true), 1, 2)
	must(err)
	add("blink", bl.Host, bl.Cfg, 4)
	hh, err := sketch.NewHH(sketch.DefaultHHParams(true))
	must(err)
	add("sketch-hh", hh.Host, hh.Cfg, 4)
	rs, err := routescout.New(routescout.DefaultConfig(app.ModeP4Auth))
	must(err)
	add("routescout", rs.Host, rs.Cfg, 4)
	return out
}

// signedCtl crafts a control message the data plane verifies: key,
// version and replay floor are read through the trusted driver API, so it
// works on a freshly booted switch and on one whose controller already
// ran its key exchange. Three in four are register requests, the rest
// key-exchange messages (which recirculate and roll keys, so later
// requests sign under whatever the pipeline installed).
func (s *corpusSubject) signedCtl(t *testing.T, r *corpusRNG) pisa.Packet {
	t.Helper()
	sw := s.host.SW
	ver, _ := sw.RegisterRead(core.RegVer, core.KeyIndexLocal)
	keyReg := core.RegKeysV0
	if ver&1 == 1 {
		keyReg = core.RegKeysV1
	}
	key, _ := sw.RegisterRead(keyReg, core.KeyIndexLocal)
	m := core.Message{Header: core.Header{KeyVersion: uint8(ver)}}
	seqSlot := 2 * core.KeyIndexLocal
	if r.intn(4) == 0 {
		seqSlot++ // key exchange replays are floored on the odd slot
		m.HdrType, m.MsgType = core.HdrKeyExch, uint8(1+r.intn(8))
		m.Kx = &core.KxPayload{Port: uint16(r.intn(s.ports + 1)), PK: r.next(), Salt: uint32(r.next())}
	} else {
		regs := s.host.Info.Registers
		ri := regs[r.intn(len(regs))]
		m.HdrType, m.MsgType = core.HdrRegister, core.MsgWriteReq
		if r.intn(2) == 0 {
			m.MsgType = core.MsgReadReq
		}
		m.Reg = &core.RegPayload{RegID: ri.ID, Index: uint32(r.intn(ri.Entries + 2)), Value: r.next()}
	}
	seq, _ := sw.RegisterRead(core.RegSeq, seqSlot)
	m.SeqNum = uint32(seq) + 1
	dig, err := s.cfg.Digester()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Sign(dig, key); err != nil {
		t.Fatal(err)
	}
	return pisa.Packet{Data: m.AppendEncode(nil), Port: pisa.CPUPort}
}

// grammarWalk follows the program's parser from the start state, filling
// each extracted header with random field values but steering select
// fields onto declared transitions most of the time, so the packet
// reaches the deep states instead of dying at the first select.
func grammarWalk(prog *pisa.Program, r *corpusRNG) []byte {
	states := make(map[string]*pisa.ParserState, len(prog.Parser))
	for i := range prog.Parser {
		states[prog.Parser[i].Name] = &prog.Parser[i]
	}
	fields := make(map[pisa.FieldRef]uint64)
	var out []byte
	name := pisa.ParserStart
	for steps := 0; steps < 16; steps++ {
		st := states[name]
		if st == nil {
			break
		}
		if st.Extract != "" {
			def := prog.Header(st.Extract)
			vals := make([]uint64, len(def.Fields))
			for i, f := range def.Fields {
				v := r.next()
				if r.intn(2) == 0 {
					v &= 0xf
				}
				if f.Width < 64 {
					v &= 1<<uint(f.Width) - 1
				}
				ref := pisa.F(def.Name, f.Name)
				if ref == st.Select && len(st.Transitions) > 0 && r.intn(8) != 0 {
					keys := make([]uint64, 0, len(st.Transitions))
					for k := range st.Transitions {
						keys = append(keys, k)
					}
					sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
					v = keys[r.intn(len(keys))]
				}
				vals[i] = v
				fields[ref] = v
			}
			b, err := pisa.PackHeader(def, vals)
			if err != nil {
				panic(err)
			}
			out = append(out, b...)
		}
		next := st.Default
		if st.Select != "" {
			if n, ok := st.Transitions[fields[st.Select]]; ok {
				next = n
			}
		}
		if next == "" {
			break
		}
		name = next
	}
	return append(out, r.bytes(r.intn(24))...)
}

func (s *corpusSubject) randomPort(r *corpusRNG) int {
	switch r.intn(8) {
	case 0:
		return pisa.CPUPort
	case 1:
		return int(r.next() & 0xffff)
	default:
		return 1 + r.intn(s.ports)
	}
}

// draw crafts the next packet of the stream and reports its kind; valid
// collects the well-formed packets that later ones tamper with, replay or
// truncate.
func (s *corpusSubject) draw(t *testing.T, r *corpusRNG, valid *[]pisa.Packet) (pisa.Packet, int) {
	t.Helper()
	prog := s.host.SW.Compiled().Program
	var pkt pisa.Packet
	kind := r.intn(10)
	if kind >= 5 && len(*valid) == 0 {
		kind = 0
	}
	switch kind {
	case 0, 1, 2:
		pkt = s.signedCtl(t, r)
		*valid = append(*valid, pkt)
	case 3:
		if s.extra != nil {
			pkt = s.extra(r)
			*valid = append(*valid, pkt)
		} else {
			pkt = pisa.Packet{Data: grammarWalk(prog, r), Port: s.randomPort(r)}
		}
	case 4:
		pkt = pisa.Packet{Data: grammarWalk(prog, r), Port: s.randomPort(r)}
	case 5, 6: // tampered: one flipped bit
		pkt = clonePacket((*valid)[r.intn(len(*valid))])
		bit := r.intn(len(pkt.Data) * 8)
		pkt.Data[bit/8] ^= 1 << uint(bit%8)
	case 7: // replayed verbatim
		pkt = clonePacket((*valid)[r.intn(len(*valid))])
	case 8: // truncated
		pkt = clonePacket((*valid)[r.intn(len(*valid))])
		pkt.Data = pkt.Data[:r.intn(len(pkt.Data))]
	default:
		pkt = pisa.Packet{Data: r.bytes(r.intn(48)), Port: s.randomPort(r)}
	}
	return pkt, kind
}

// stream returns the subject's seeded generator.
func (s *corpusSubject) stream() corpusRNG {
	r := corpusRNG(corpusSeed)
	for _, c := range s.name {
		r = corpusRNG(uint64(r)*31 + uint64(c))
	}
	return r
}

// run drives the subject with the seeded stream and returns its golden
// lines.
func (s *corpusSubject) run(t *testing.T) []string {
	t.Helper()
	sw := s.host.SW
	prog := sw.Compiled().Program
	r := s.stream()
	h := sha256.New()
	var lines []string
	var valid []pisa.Packet
	var res pisa.Result
	emitted, failed, answered := 0, 0, 0
	for i := 0; i < corpusPackets; i++ {
		pkt, kind := s.draw(t, &r, &valid)
		sw.SetNow(uint64(i+1) * 1000)
		err := sw.ProcessInto(pkt, &res)
		var line bytes.Buffer
		fmt.Fprintf(&line, "%d kind=%d in=%d:%x", i, kind, pkt.Port, pkt.Data)
		if err != nil {
			failed++
			fmt.Fprintf(&line, " err=%q", err.Error())
		} else {
			fmt.Fprintf(&line, " passes=%d cost=%d", res.Passes, res.Cost)
			for _, e := range res.Emissions {
				emitted++
				fmt.Fprintf(&line, " out=%d:%x", e.Port, e.Data)
				if kind <= 2 {
					if m, derr := core.DecodeMessage(e.Data); derr == nil && m.HdrType == core.HdrRegister && m.MsgType == core.MsgAck {
						answered++
					}
				}
			}
		}
		line.WriteByte('\n')
		h.Write(line.Bytes())
		if (i+1)%corpusCheckpoint == 0 {
			lines = append(lines, fmt.Sprintf("%s packets=%d digest=%x", s.name, i+1, h.Sum(nil)[:12]))
		}
	}
	if answered == 0 && prog.Header(core.HdrAuth) != nil {
		t.Errorf("%s: no signed register request was acknowledged; the corpus does not reach the verified path", s.name)
	}

	var counters []string
	for _, c := range sw.CounterSnapshot() {
		counters = append(counters, fmt.Sprintf("%s:%d", c.Name, c.Value))
	}
	rh := sha256.New()
	for _, reg := range prog.Registers {
		fmt.Fprintf(rh, "%s", reg.Name)
		for i := 0; i < reg.Entries; i++ {
			v, err := sw.RegisterRead(reg.Name, i)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(rh, " %x", v)
		}
		fmt.Fprintln(rh)
	}
	lines = append(lines, fmt.Sprintf("%s final emissions=%d errors=%d acked=%d counters=%s regs=%x",
		s.name, emitted, failed, answered, strings.Join(counters, ","), rh.Sum(nil)[:12]))
	return lines
}

func TestDifferentialCorpus(t *testing.T) {
	var b strings.Builder
	b.WriteString("# Differential corpus digests for the pisa interpreter (see corpus_test.go).\n")
	b.WriteString("# Regenerate (reviewed behaviour changes only): GOLDEN_UPDATE=1\n")
	for _, s := range corpusSubjects(t) {
		for _, line := range s.run(t) {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	got := b.String()
	if os.Getenv("GOLDEN_UPDATE") != "" {
		if err := os.WriteFile(corpusGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(corpusGolden)
	if err != nil {
		t.Fatalf("read golden (run with GOLDEN_UPDATE=1 to create): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) {
				break
			}
			if gl[i] != wl[i] {
				t.Fatalf("corpus diverges from %s at line %d:\n got  %s\n want %s",
					corpusGolden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("corpus has %d lines, %s has %d", len(gl), corpusGolden, len(wl))
	}
}

// TestCorpusBytePlansMatchReference holds the byte plans of the eleven
// corpus programs, every header's and every hash op's, equal to the
// bit-at-a-time reference codec.
func TestCorpusBytePlansMatchReference(t *testing.T) {
	for _, s := range corpusSubjects(t) {
		pisa.CheckCompiledPlans(t, s.host.SW.Compiled())
	}
}

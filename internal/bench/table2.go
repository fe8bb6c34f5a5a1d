package bench

import (
	"fmt"

	"p4auth/internal/core"
	"p4auth/internal/pisa"
)

// baselineL3 is the paper's evaluation base: destination-based layer-3
// port forwarding with two match-action tables (an LPM route table in TCAM
// and an exact next-hop table in SRAM) and one register.
func baselineL3() *pisa.Program {
	return &pisa.Program{
		Name: "l3fwd",
		Headers: []*pisa.HeaderDef{
			core.PTypeHeader(),
			{Name: "eth", Fields: []pisa.FieldDef{
				{Name: "dst", Width: 48},
				{Name: "src", Width: 48},
				{Name: "etype", Width: 16},
			}},
			{Name: "ipv4", Fields: []pisa.FieldDef{
				{Name: "ver_ihl", Width: 8},
				{Name: "dscp", Width: 8},
				{Name: "len", Width: 16},
				{Name: "id", Width: 16},
				{Name: "frag", Width: 16},
				{Name: "ttl", Width: 8},
				{Name: "proto", Width: 8},
				{Name: "csum", Width: 16},
				{Name: "src", Width: 32},
				{Name: "dst", Width: 32},
			}},
		},
		Metadata: []pisa.FieldDef{
			{Name: "nhop", Width: 16},
			{Name: "ecmp", Width: 16},
		},
		Parser: []pisa.ParserState{
			{Name: pisa.ParserStart, Extract: core.HdrPType,
				Select:      pisa.F(core.HdrPType, "v"),
				Transitions: map[uint64]string{0x02: "eth"}},
			{Name: "eth", Extract: "eth", Select: pisa.F("eth", "etype"),
				Transitions: map[uint64]string{0x0800: "ipv4"}},
			{Name: "ipv4", Extract: "ipv4"},
		},
		DeparseOrder: []string{core.HdrPType, "eth", "ipv4"},
		Actions: []*pisa.Action{
			{Name: "set_nhop", Params: []pisa.FieldDef{{Name: "nhop", Width: 16}}, Body: []pisa.Op{
				pisa.Set(pisa.F(pisa.MetaHeader, "nhop"), pisa.R(pisa.F(pisa.ParamHeader, "nhop"))),
				pisa.Sub(pisa.F("ipv4", "ttl"), pisa.R(pisa.F("ipv4", "ttl")), pisa.C(1)),
			}},
			{Name: "fwd", Params: []pisa.FieldDef{
				{Name: "port", Width: 16},
				{Name: "dmac", Width: 48},
			}, Body: []pisa.Op{
				pisa.Set(pisa.F("eth", "dst"), pisa.R(pisa.F(pisa.ParamHeader, "dmac"))),
				pisa.Forward(pisa.R(pisa.F(pisa.ParamHeader, "port"))),
			}},
			{Name: "drop_pkt", Body: []pisa.Op{pisa.Drop()}},
		},
		Tables: []*pisa.Table{
			{Name: "routes", Keys: []pisa.TableKey{{Field: pisa.F("ipv4", "dst"), Match: pisa.MatchLPM}},
				Size: 3072, Actions: []string{"set_nhop", "drop_pkt"}, Default: "drop_pkt"},
			{Name: "nexthops", Keys: []pisa.TableKey{{Field: pisa.F(pisa.MetaHeader, "nhop"), Match: pisa.MatchExact}},
				Size: 32768, Actions: []string{"fwd", "drop_pkt"}, Default: "drop_pkt"},
		},
		Registers: []*pisa.RegisterDef{
			{Name: "l3_pkt_count", Width: 64, Entries: 4096},
		},
		Control: []pisa.Op{
			pisa.If(pisa.Valid("ipv4"), []pisa.Op{
				// ECMP selector over the flow 5-tuple surrogate.
				pisa.Hash(pisa.F(pisa.MetaHeader, "ecmp"), pisa.HashCRC32,
					pisa.R(pisa.F("ipv4", "src")), pisa.R(pisa.F("ipv4", "dst")), pisa.R(pisa.F("ipv4", "proto"))),
				pisa.Apply("routes"),
				pisa.Apply("nexthops"),
				pisa.RegRMW(pisa.F(pisa.MetaHeader, "nhop"), "l3_pkt_count", pisa.C(0), pisa.RMWAdd, pisa.C(1)),
			}),
		},
	}
}

// withP4Auth weaves P4Auth (at the given digest width, with or without
// the §XI encryption) into the baseline.
func withP4Auth(words int, encrypt bool) (*pisa.Program, error) {
	prog := baselineL3()
	cfg := core.DefaultConfig(32, core.DigestCRC32)
	cfg.DigestWords = words
	cfg.Encrypt = encrypt
	err := core.AddToProgram(prog, cfg, core.Integration{
		Exposed: []string{"l3_pkt_count"},
	})
	return prog, err
}

// TableII regenerates Table II: Tofino resource utilization of the
// baseline L3 program versus baseline+P4Auth.
func TableII() (*Report, error) {
	profile := pisa.TofinoProfile()
	pa, err := withP4Auth(1, false)
	if err != nil {
		return nil, err
	}
	enc, err := withP4Auth(1, true)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:      "Table II",
		Title:   "Hardware resource overhead (Tofino profile)",
		Columns: []string{"program", "TCAM", "SRAM", "Hash units", "PHV", "stages", "passes"},
		Notes: []string{
			"paper: TCAM 8.3->8.3%, SRAM 2.5->3.6%, Hash 1.4->51.4%, PHV 11->23.1%",
			"PHV here is conservative: the model does not overlay short-lived metadata as the vendor compiler does",
		},
	}
	for _, v := range []struct {
		label string
		prog  *pisa.Program
	}{{"Baseline", baselineL3()}, {"With P4Auth", pa}, {"+ §XI encryption", enc}} {
		c, err := pisa.Compile(v.prog, profile)
		if err != nil {
			return nil, err
		}
		u := c.Usage.Percent(profile)
		rep.Rows = append(rep.Rows, []string{v.label, fmtPct(u.TCAM), fmtPct(u.SRAM), fmtPct(u.Hash), fmtPct(u.PHV),
			fmt.Sprintf("%d", c.Usage.Stages), fmt.Sprintf("%d", c.Usage.Passes)})
	}
	return rep, nil
}

func fmtPct(x float64) string { return fmt.Sprintf("%.1f%%", x) }

// AblationDigest regenerates the §XI digest-width discussion: resource
// and stage growth as the digest widens from 32 to 256 bits. Compilation
// uses a capacity-relaxed profile so over-budget configurations still
// report usage; percentages are against the real Tofino capacities.
func AblationDigest() (*Report, error) {
	real := pisa.TofinoProfile()
	relaxed := real
	relaxed.HashBits *= 16
	relaxed.PHVBits *= 4
	relaxed.MaxPasses = 64

	rep := &Report{
		ID:      "Ablation",
		Title:   "Digest width vs data-plane resources (§XI)",
		Columns: []string{"digest", "hash bits", "hash % of Tofino", "stages", "passes", "fits Tofino"},
	}
	base := 0
	for _, words := range []int{1, 2, 4, 8} {
		prog, err := withP4Auth(words, false)
		if err != nil {
			return nil, err
		}
		c, err := pisa.Compile(prog, relaxed)
		if err != nil {
			return nil, err
		}
		if words == 1 {
			base = c.Usage.HashBits
		}
		_, fitErr := pisa.Compile(prog, real)
		fits := "yes"
		if fitErr != nil {
			fits = "no"
		}
		growth := ""
		if words > 1 && base > 0 {
			growth = fmt.Sprintf(" (+%.0f%%)", 100*float64(c.Usage.HashBits-base)/float64(base))
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d-bit", 32*words),
			fmt.Sprintf("%d%s", c.Usage.HashBits, growth),
			fmtPct(100 * float64(c.Usage.HashBits) / float64(real.HashBits)),
			fmt.Sprintf("%d", c.Usage.Stages),
			fmt.Sprintf("%d", c.Usage.Passes),
			fits,
		})
	}
	rep.Notes = append(rep.Notes,
		"paper (§XI): a 256-bit digest increases hash units by 560% and pipeline stages by 100% vs 32-bit")
	return rep, nil
}

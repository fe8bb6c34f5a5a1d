package core

import (
	"fmt"
	"slices"

	"p4auth/internal/crypto"
	"p4auth/internal/p4rt"
	"p4auth/internal/pisa"
)

// Register, table, and metadata names the generated data plane uses.
const (
	RegKeysV0   = "pa_keys_v0"    // ingress key table, version 0
	RegKeysV1   = "pa_keys_v1"    // ingress key table, version 1
	RegVer      = "pa_ver"        // current key version per slot
	RegSeq      = "pa_seq"        // highest seen seqNum per slot (replay)
	RegSeqOut   = "pa_seq_out"    // outgoing seq per port (initiator kx)
	RegAlert    = "pa_alert"      // alert counter (DoS threshold)
	RegKxR      = "pa_kx_r"       // initiator private secrets per port
	RegKxS      = "pa_kx_s"       // initiator salts per port
	RegEgKeysV0 = "pa_eg_keys_v0" // egress key table, version 0
	RegEgKeysV1 = "pa_eg_keys_v1" // egress key table, version 1
	RegEgVer    = "pa_eg_ver"     // egress current version per port
	RegEgSeq    = "pa_eg_seq"     // outgoing probe seq per port
	RegFbOK     = "pa_fb_ok"      // accepted feedback per ingress port (LinkTelemetry)
	RegFbBad    = "pa_fb_bad"     // rejected feedback per ingress port (LinkTelemetry)

	TableRegMap   = "pa_reg_map"
	ActionRegMiss = "pa_reg_miss"
)

// Metadata field names (under the "meta" pseudo-header).
const (
	MAuthOK   = "pa_ok" // 1 after successful DP-DP feedback verification
	mKeyIdx   = "pa_key_idx"
	mKey      = "pa_key"
	mDig      = "pa_dig"
	mVBit     = "pa_vbit"
	mNewVer   = "pa_newver"
	mNewBit   = "pa_newbit"
	mAlertRsn = "pa_alert_rsn"
	mAlertOld = "pa_alert_old"
	mSeqOld   = "pa_seq_old"
	mInPhase  = "pa_inphase"
	mMiss     = "pa_miss"
	mR        = "pa_r"
	mT1       = "pa_t1"
	mT2       = "pa_t2"
	mS        = "pa_s"
	mLo       = "pa_lo"
	mHi       = "pa_hi"
	mPrk      = "pa_prk"
	mOut      = "pa_out"
	mVerCur   = "pa_ver_cur"
	mMsgIn    = "pa_msg_in"
	mSeqIdx   = "pa_seq_idx"
	mSeqOut   = "pa_seqout"
	mEgVer    = "pa_eg_ver_m"
	mEgBit    = "pa_eg_bit"
	mEgKey    = "pa_eg_key"
	mEgDig    = "pa_eg_dig"
	mEgSeq    = "pa_eg_seq_m"
	mEncLo    = "pa_enc_lo"
	mEncHi    = "pa_enc_hi"
	mEncKS    = "pa_enc_ks"
	mFbOld    = "pa_fb_old"
)

// AuxPayload registers a host-protocol header (e.g. a HULA probe) as a
// DP-DP feedback body: its fields join the digest input, its parser state
// hangs off pa_h's hdrType=HdrFeedback transition, and egress re-signs it
// per replica with the egress port key.
type AuxPayload struct {
	// Header is the host header name carrying the feedback body.
	Header string
	// ParserState is the host parser state that extracts it; pa_h's
	// HdrFeedback transition will point here.
	ParserState string
}

// Integration describes how P4Auth attaches to a host program.
type Integration struct {
	// Exposed lists host registers reachable through authenticated
	// register read/write requests (each costs two reg-map entries, §VII).
	Exposed []string
	// Aux lists DP-DP feedback payloads to authenticate.
	Aux []AuxPayload
	// GeneratorPort is the port self-originated feedback enters on (the
	// hardware packet generator); packets from it bypass verification and
	// get signed on egress. 0 disables.
	GeneratorPort int
	// LinkTelemetry adds per-ingress-port feedback verification counters
	// (pa_fb_ok / pa_fb_bad, exposed for authenticated reads) — the
	// data-plane evidence a link-health supervisor polls to tell a quiet
	// link from one shedding forged or stale feedback. Opt-in so baseline
	// builds keep the paper's Table II resource footprint.
	LinkTelemetry bool
}

func mf(name string) pisa.FieldRef { return pisa.F(pisa.MetaHeader, name) }

// mDigX holds the extra digest words of the §XI ablation; chaining them
// through one destination serializes the hash calls, modeling the extra
// compute cycles the paper describes for wider digests.
const mDigX = "pa_dig_x"

// digestOps emits the digest computation: one keyed hash for the standard
// 32-bit digest, plus DigestWords-1 chained hashes when the ablation
// widens it. Each extra word mixes the previous word back in (a
// Merkle-Damgård-style extension), so the words cannot be computed in
// parallel — matching the paper's "compute cycles multiplied" discussion.
func digestOps(cfg Config, alg pisa.HashAlg, dst pisa.FieldRef, key pisa.Operand, inputs []pisa.Operand) []pisa.Op {
	ops := []pisa.Op{pisa.KeyedHash(dst, alg, key, inputs...)}
	for w := 1; w < cfg.DigestWords; w++ {
		chained := append([]pisa.Operand{pisa.R(dst), pisa.C(uint64(0xD160_0000 + w))}, inputs...)
		ops = append(ops, pisa.KeyedHash(mf(mDigX), alg, key, chained...))
		// Fold the word back so the chain depends on every stage.
		ops = append(ops, pisa.Xor(dst, pisa.R(dst), pisa.R(mf(mDigX))))
	}
	return ops
}

func hdrDigestOperands() []pisa.Operand {
	return []pisa.Operand{
		pisa.R(pisa.F(HdrAuth, "hdrType")),
		pisa.R(pisa.F(HdrAuth, "msgType")),
		pisa.R(pisa.F(HdrAuth, "seqNum")),
		pisa.R(pisa.F(HdrAuth, "keyVersion")),
	}
}

func regDigestOperands() []pisa.Operand {
	return append(hdrDigestOperands(),
		pisa.R(pisa.F(HdrReg, "regid")),
		pisa.R(pisa.F(HdrReg, "index")),
		pisa.R(pisa.F(HdrReg, "value")),
	)
}

func kxDigestOperands() []pisa.Operand {
	return append(hdrDigestOperands(),
		pisa.R(pisa.F(HdrKx, "port")),
		pisa.R(pisa.F(HdrKx, "pk")),
		pisa.R(pisa.F(HdrKx, "salt")),
	)
}

func auxDigestOperands(prog *pisa.Program, header string) ([]pisa.Operand, error) {
	def := prog.Header(header)
	if def == nil {
		return nil, fmt.Errorf("core: aux payload header %q not found in program", header)
	}
	ops := hdrDigestOperands()
	for _, f := range def.Fields {
		ops = append(ops, pisa.R(pisa.F(header, f.Name)))
	}
	return ops, nil
}

// AddToProgram weaves the P4Auth data plane into a host program: headers,
// parser states, registers, the register-map table, and the ingress and
// egress control blocks. The host program must already have a start parser
// state extracting the shared ptype header; P4Auth claims the PTypeP4Auth
// transition. P4Auth's ingress block is prepended to the host control (so
// the host sees MAuthOK), and its egress block is appended after the
// host's (so it signs final field values).
func AddToProgram(prog *pisa.Program, cfg Config, integ Integration) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	alg, err := cfg.HashAlg()
	if err != nil {
		return err
	}
	if prog.Header(HdrPType) == nil {
		return fmt.Errorf("core: host program must declare the %q header (use PTypeHeader)", HdrPType)
	}
	for _, ex := range integ.Exposed {
		if prog.Register(ex) == nil {
			return fmt.Errorf("core: exposed register %q not found in host program", ex)
		}
	}

	// Headers.
	prog.Headers = append(prog.Headers, AuthHeader(), RegPayloadHeader(), KxPayloadHeader(), IntHeader())

	// Parser: claim the ptype transition, add our states.
	if err := attachParser(prog, integ); err != nil {
		return err
	}

	// Deparse order: our headers immediately after ptype.
	prog.DeparseOrder = spliceAfter(prog.DeparseOrder, HdrPType, HdrAuth, HdrReg, HdrKx, HdrInt)

	// Metadata.
	prog.Metadata = append(prog.Metadata,
		pisa.FieldDef{Name: MAuthOK, Width: 8},
		pisa.FieldDef{Name: mKeyIdx, Width: 16},
		pisa.FieldDef{Name: mKey, Width: 64},
		pisa.FieldDef{Name: mDig, Width: 32},
		pisa.FieldDef{Name: mVBit, Width: 8},
		pisa.FieldDef{Name: mNewVer, Width: 8},
		pisa.FieldDef{Name: mNewBit, Width: 8},
		pisa.FieldDef{Name: mAlertRsn, Width: 8},
		pisa.FieldDef{Name: mAlertOld, Width: 32},
		pisa.FieldDef{Name: mSeqOld, Width: 32},
		pisa.FieldDef{Name: mInPhase, Width: 8},
		pisa.FieldDef{Name: mMiss, Width: 8},
		pisa.FieldDef{Name: mR, Width: 64},
		pisa.FieldDef{Name: mT1, Width: 64},
		pisa.FieldDef{Name: mT2, Width: 64},
		pisa.FieldDef{Name: mS, Width: 64},
		pisa.FieldDef{Name: mLo, Width: 32},
		pisa.FieldDef{Name: mHi, Width: 32},
		pisa.FieldDef{Name: mPrk, Width: 64},
		pisa.FieldDef{Name: mOut, Width: 64},
		pisa.FieldDef{Name: mVerCur, Width: 8},
		pisa.FieldDef{Name: mMsgIn, Width: 8},
		pisa.FieldDef{Name: mSeqIdx, Width: 16},
		pisa.FieldDef{Name: mDigX, Width: 32},
		pisa.FieldDef{Name: mSeqOut, Width: 32},
		pisa.FieldDef{Name: mEgVer, Width: 8},
		pisa.FieldDef{Name: mEgBit, Width: 8},
		pisa.FieldDef{Name: mEgKey, Width: 64},
		pisa.FieldDef{Name: mEgDig, Width: 32},
		pisa.FieldDef{Name: mEgSeq, Width: 32},
	)
	if cfg.Encrypt {
		prog.Metadata = append(prog.Metadata,
			pisa.FieldDef{Name: mEncLo, Width: 32},
			pisa.FieldDef{Name: mEncHi, Width: 32},
			pisa.FieldDef{Name: mEncKS, Width: 64},
		)
	}
	if integ.LinkTelemetry {
		prog.Metadata = append(prog.Metadata, pisa.FieldDef{Name: mFbOld, Width: 32})
	}

	// Registers. Slot space is 0 (local) plus ports 1..Ports.
	n := cfg.Ports + 1
	prog.Registers = append(prog.Registers,
		&pisa.RegisterDef{Name: RegKeysV0, Width: 64, Entries: n},
		&pisa.RegisterDef{Name: RegKeysV1, Width: 64, Entries: n},
		&pisa.RegisterDef{Name: RegVer, Width: 8, Entries: n},
		// Two replay high-water marks per slot: feedback probes and key
		// exchange ride distinct sequence streams on the same port.
		&pisa.RegisterDef{Name: RegSeq, Width: 32, Entries: 2 * n},
		&pisa.RegisterDef{Name: RegSeqOut, Width: 32, Entries: n},
		&pisa.RegisterDef{Name: RegAlert, Width: 32, Entries: 1},
		&pisa.RegisterDef{Name: RegKxR, Width: 64, Entries: n},
		&pisa.RegisterDef{Name: RegKxS, Width: 32, Entries: n},
		&pisa.RegisterDef{Name: RegEgKeysV0, Width: 64, Entries: n},
		&pisa.RegisterDef{Name: RegEgKeysV1, Width: 64, Entries: n},
		&pisa.RegisterDef{Name: RegEgVer, Width: 8, Entries: n},
		&pisa.RegisterDef{Name: RegEgSeq, Width: 32, Entries: n},
	)
	if integ.LinkTelemetry {
		// Per-ingress-port feedback verdict counters, slot-indexed like the
		// key tables (0 = controller channel, 1..Ports = network ports).
		prog.Registers = append(prog.Registers,
			&pisa.RegisterDef{Name: RegFbOK, Width: 32, Entries: n},
			&pisa.RegisterDef{Name: RegFbBad, Width: 32, Entries: n},
		)
	}

	// Register-map table and per-register actions (§VII, Fig. 15). The
	// alert counter is always exposed for authenticated window resets, and
	// the ingress key-version counter for key-state resync: the controller
	// reads it to detect a half-completed rollover and writes it to roll
	// the local slot back to the last mutually-known version (reachable
	// only through digest-verified requests, i.e. by a legitimate
	// controller). The egress counter stays in lockstep with the ingress
	// one by construction (both bump once per install pass), so it needs no
	// exposure — and cannot have any, being an egress-pipeline register.
	regMapped := append(append([]string(nil), integ.Exposed...), RegAlert, RegVer, RegSeq, RegSeqOut)
	if integ.LinkTelemetry {
		regMapped = append(regMapped, RegFbOK, RegFbBad)
	}
	if err := addRegMap(prog, regMapped); err != nil {
		return err
	}

	// Ingress control.
	ingress, err := buildIngress(prog, cfg, integ, alg)
	if err != nil {
		return err
	}
	prog.Control = append(ingress, prog.Control...)

	// Egress control.
	egress, err := buildEgress(prog, cfg, integ, alg)
	if err != nil {
		return err
	}
	prog.EgressControl = append(prog.EgressControl, egress...)
	return nil
}

func spliceAfter(order []string, after string, add ...string) []string {
	out := make([]string, 0, len(order)+len(add))
	inserted := false
	for _, name := range order {
		out = append(out, name)
		if name == after {
			out = append(out, add...)
			inserted = true
		}
	}
	if !inserted {
		// ptype not in deparse order: prepend everything.
		return append(append([]string{after}, add...), order...)
	}
	return out
}

func attachParser(prog *pisa.Program, integ Integration) error {
	var start *pisa.ParserState
	for i := range prog.Parser {
		if prog.Parser[i].Name == pisa.ParserStart {
			start = &prog.Parser[i]
		}
	}
	if start == nil || start.Extract != HdrPType {
		return fmt.Errorf("core: host parser must start by extracting %q", HdrPType)
	}
	if start.Select == "" {
		start.Select = pisa.F(HdrPType, "v")
	}
	if start.Transitions == nil {
		start.Transitions = make(map[uint64]string)
	}
	if _, taken := start.Transitions[PTypeP4Auth]; taken {
		return fmt.Errorf("core: ptype value %#x already claimed by the host parser", PTypeP4Auth)
	}
	start.Transitions[PTypeP4Auth] = "pa_h_state"

	authState := pisa.ParserState{
		Name:    "pa_h_state",
		Extract: HdrAuth,
		Select:  pisa.F(HdrAuth, "hdrType"),
		Transitions: map[uint64]string{
			HdrRegister: "pa_reg_state",
			HdrAlert:    "pa_reg_state",
			HdrKeyExch:  "pa_kx_state",
		},
	}
	if len(integ.Aux) > 0 {
		// All feedback bodies share hdrType=HdrFeedback; the host decides
		// which header follows via its registered state.
		authState.Transitions[HdrFeedback] = integ.Aux[0].ParserState
		if len(integ.Aux) > 1 {
			return fmt.Errorf("core: at most one aux payload parser chain is supported (got %d)", len(integ.Aux))
		}
	}
	prog.Parser = append(prog.Parser,
		authState,
		pisa.ParserState{Name: "pa_reg_state", Extract: HdrReg},
		pisa.ParserState{
			Name:    "pa_kx_state",
			Extract: HdrKx,
			Select:  pisa.F(HdrKx, "phase"),
			Transitions: map[uint64]string{
				PhaseInstall: "pa_int_state",
				PhaseForward: "pa_int_skip", // forward phase carries no pa_int
			},
		},
		pisa.ParserState{Name: "pa_int_state", Extract: HdrInt},
		pisa.ParserState{Name: "pa_int_skip"},
	)
	return nil
}

// ReadActionName names the generated per-register read action.
func ReadActionName(reg string) string { return "pa_read_" + reg }

// WriteActionName names the generated per-register write action.
func WriteActionName(reg string) string { return "pa_write_" + reg }

// addRegMap declares the register-map table (§VII): a read and a write
// action per exposed register, and as the table's const entries the
// (register ID, read|write) pairs that select them, so the map is
// compiled, never installed at run time. IDs are p4info's declaration
// order, so every exposed register must be declared before AddToProgram.
// The sequencing registers (replay floors and outbound counters) are
// exposed so crash recovery can audit floors and re-pair DP-DP sequencing
// on links whose ends rebooted. Every access still rides the
// authenticated channel; exposure adds no capability an adversary without
// K_local lacks.
func addRegMap(prog *pisa.Program, exposed []string) error {
	actions := []string{ActionRegMiss}
	entries := make([]pisa.Entry, 0, 2*len(exposed))
	prog.Actions = append(prog.Actions, &pisa.Action{
		Name: ActionRegMiss,
		Body: []pisa.Op{pisa.Set(mf(mMiss), pisa.C(1))},
	})
	for _, reg := range exposed {
		i := slices.IndexFunc(prog.Registers, func(r *pisa.RegisterDef) bool { return r.Name == reg })
		if i < 0 {
			return fmt.Errorf("core: exposed register %q is not declared before AddToProgram", reg)
		}
		id := uint64(p4rt.RegisterID(i))
		prog.Actions = append(prog.Actions,
			&pisa.Action{Name: ReadActionName(reg), Body: []pisa.Op{
				pisa.RegRead(pisa.F(HdrReg, "value"), reg, pisa.R(pisa.F(HdrReg, "index"))),
				pisa.Set(mf(mMiss), pisa.C(0)),
			}},
			&pisa.Action{Name: WriteActionName(reg), Body: []pisa.Op{
				pisa.RegWrite(reg, pisa.R(pisa.F(HdrReg, "index")), pisa.R(pisa.F(HdrReg, "value"))),
				pisa.Set(mf(mMiss), pisa.C(0)),
			}},
		)
		actions = append(actions, ReadActionName(reg), WriteActionName(reg))
		entries = append(entries,
			pisa.Entry{Key: []pisa.KeyMatch{pisa.EKey(id), pisa.EKey(MsgReadReq)}, Action: ReadActionName(reg)},
			pisa.Entry{Key: []pisa.KeyMatch{pisa.EKey(id), pisa.EKey(MsgWriteReq)}, Action: WriteActionName(reg)},
		)
	}
	size := 2*len(exposed) + 2
	prog.Tables = append(prog.Tables, &pisa.Table{
		Name: TableRegMap,
		Keys: []pisa.TableKey{
			{Field: pisa.F(HdrReg, "regid"), Match: pisa.MatchExact},
			{Field: pisa.F(HdrAuth, "msgType"), Match: pisa.MatchExact},
		},
		Size:         size,
		Actions:      actions,
		Default:      ActionRegMiss,
		ConstEntries: entries,
	})
	return nil
}

// Boot loads the compile-time seed key into the data plane's key register,
// modeling the P4 binary shipping K_seed (§VI-A).
func Boot(sw *pisa.Switch, cfg Config) error {
	return sw.RegisterWrite(RegKeysV0, KeyIndexLocal, cfg.Seed)
}

// FactoryReset zeroes all P4Auth state registers and re-seeds the key
// table — the operator "reload the switch" recovery path for the one
// liveness gap the protocol (as published) has: if a key-exchange
// response is lost and the exchange retried, the two sides' version
// counters can drift until the tag bit no longer selects a shared key.
func FactoryReset(sw *pisa.Switch, cfg Config) error {
	info := p4rt.InfoOf(sw.Compiled())
	for _, name := range []string{
		RegKeysV0, RegKeysV1, RegVer, RegSeq, RegSeqOut, RegAlert,
		RegKxR, RegKxS, RegEgKeysV0, RegEgKeysV1, RegEgVer, RegEgSeq,
		RegFbOK, RegFbBad,
	} {
		def, err := info.RegisterByName(name)
		if err != nil {
			continue // insecure builds carry no key-exchange state
		}
		for i := 0; i < def.Entries; i++ {
			if err := sw.RegisterWrite(name, i, 0); err != nil {
				return err
			}
		}
	}
	return Boot(sw, cfg)
}

func buildIngress(prog *pisa.Program, cfg Config, integ Integration, alg pisa.HashAlg) ([]pisa.Op, error) {
	verifyBlock, err := buildVerifyDispatch(prog, cfg, integ, alg)
	if err != nil {
		return nil, err
	}
	phaseBlock := buildPhases(cfg, alg)

	inner := []pisa.Op{
		pisa.Set(mf(mInPhase), pisa.C(0)),
		pisa.If(pisa.Valid(HdrKx), []pisa.Op{
			pisa.Set(mf(mInPhase), pisa.R(pisa.F(HdrKx, "phase"))),
		}),
		pisa.If(pisa.Eq(pisa.R(mf(mInPhase)), pisa.C(PhaseVerify)),
			verifyBlock,
			phaseBlock,
		),
	}
	return []pisa.Op{pisa.If(pisa.Valid(HdrAuth), inner)}, nil
}

func buildVerifyDispatch(prog *pisa.Program, cfg Config, integ Integration, alg pisa.HashAlg) ([]pisa.Op, error) {
	hdrAuth := func(f string) pisa.FieldRef { return pisa.F(HdrAuth, f) }

	// Key slot: 0 for the controller channel, ingress port otherwise.
	ops := []pisa.Op{
		pisa.Set(mf(mKeyIdx), pisa.R(mf(pisa.MetaIngressPort))),
		pisa.If(pisa.Eq(pisa.R(mf(pisa.MetaIngressPort)), pisa.C(pisa.CPUPort)), []pisa.Op{
			pisa.Set(mf(mKeyIdx), pisa.C(KeyIndexLocal)),
		}),
	}

	// Insecure baseline (DP-Reg-RW): skip all digest work, process
	// register requests directly.
	if cfg.Insecure {
		ops = append(ops, pisa.If(pisa.Valid(HdrReg), buildRegDispatch(cfg, alg)))
		return ops, nil
	}

	// Load the verification key for the message's tagged version.
	ops = append(ops,
		pisa.And(mf(mVBit), pisa.R(hdrAuth("keyVersion")), pisa.C(1)),
		pisa.If(pisa.Eq(pisa.R(mf(mVBit)), pisa.C(0)),
			[]pisa.Op{pisa.RegRead(mf(mKey), RegKeysV0, pisa.R(mf(mKeyIdx)))},
			[]pisa.Op{pisa.RegRead(mf(mKey), RegKeysV1, pisa.R(mf(mKeyIdx)))},
		),
	)

	// Recompute the digest per payload kind.
	ops = append(ops,
		pisa.If(pisa.Valid(HdrReg), digestOps(cfg, alg, mf(mDig), pisa.R(mf(mKey)), regDigestOperands())),
		pisa.If(pisa.Valid(HdrKx), digestOps(cfg, alg, mf(mDig), pisa.R(mf(mKey)), kxDigestOperands())),
	)
	for _, aux := range integ.Aux {
		inputs, err := auxDigestOperands(prog, aux.Header)
		if err != nil {
			return nil, err
		}
		ops = append(ops, pisa.If(pisa.Valid(aux.Header), digestOps(cfg, alg, mf(mDig), pisa.R(mf(mKey)), inputs)))
	}

	// Verified path: replay check, then dispatch. Key-exchange messages
	// use the odd replay slot, everything else the even one, so the two
	// per-port sequence streams never collide.
	verified := []pisa.Op{
		pisa.Shl(mf(mSeqIdx), pisa.R(mf(mKeyIdx)), pisa.C(1)),
		pisa.If(pisa.Valid(HdrKx), []pisa.Op{
			pisa.Add(mf(mSeqIdx), pisa.R(mf(mSeqIdx)), pisa.C(1)),
		}),
		pisa.RegRMW(mf(mSeqOld), RegSeq, pisa.R(mf(mSeqIdx)), pisa.RMWMax, pisa.R(hdrAuth("seqNum"))),
		pisa.If(pisa.Cond{L: pisa.R(hdrAuth("seqNum")), R: pisa.R(mf(mSeqOld)), Cmp: pisa.CmpLe},
			[]pisa.Op{pisa.Set(mf(mAlertRsn), pisa.C(AlertReplay))},
			buildDispatch(cfg, integ, alg),
		),
	}

	ops = append(ops,
		pisa.Set(mf(mAlertRsn), pisa.C(0)),
		pisa.If(pisa.Ne(pisa.R(mf(mDig)), pisa.R(hdrAuth("digest"))),
			[]pisa.Op{pisa.Set(mf(mAlertRsn), pisa.C(AlertBadDigest))},
			verified,
		),
	)

	// Generator-port feedback bypasses verification entirely (hardware
	// packet generator originating probes): mark OK so the host forwards
	// it; egress will sign each replica.
	if integ.GeneratorPort != 0 {
		full := ops
		bypass := []pisa.Op{pisa.Set(mf(MAuthOK), pisa.C(1))}
		ops = []pisa.Op{
			pisa.If(pisa.Eq(pisa.R(mf(pisa.MetaIngressPort)), pisa.C(uint64(integ.GeneratorPort))),
				bypass, full),
		}
	}

	// Alert path (shared by digest and replay failures): threshold-capped
	// authenticated alert to the controller (§VIII DoS mitigation).
	var alert []pisa.Op
	if integ.LinkTelemetry {
		// Charge the failed feedback to its ingress port before the alert
		// threshold can swallow it — the supervisor's evidence must count
		// every rejection, not just the alerted ones.
		for _, aux := range integ.Aux {
			alert = append(alert, pisa.If(pisa.Valid(aux.Header), []pisa.Op{
				pisa.RegRMW(mf(mFbOld), RegFbBad, pisa.R(mf(mKeyIdx)), pisa.RMWAdd, pisa.C(1)),
			}))
		}
	}
	alert = append(alert,
		pisa.RegRMW(mf(mAlertOld), RegAlert, pisa.C(0), pisa.RMWAdd, pisa.C(1)),
		pisa.If(pisa.Lt(pisa.R(mf(mAlertOld)), pisa.C(cfg.AlertThreshold)),
			buildAlertEmit(cfg, integ, alg),
			[]pisa.Op{pisa.Drop()},
		),
	)
	ops = append(ops, pisa.If(pisa.Ne(pisa.R(mf(mAlertRsn)), pisa.C(0)), alert))
	return ops, nil
}

func buildAlertEmit(cfg Config, integ Integration, alg pisa.HashAlg) []pisa.Op {
	ops := []pisa.Op{
		pisa.Set(pisa.F(HdrAuth, "hdrType"), pisa.C(HdrAlert)),
		pisa.Set(pisa.F(HdrAuth, "msgType"), pisa.R(mf(mAlertRsn))),
		pisa.If(pisa.NotValid(HdrReg), []pisa.Op{pisa.SetValid(HdrReg)}),
		pisa.SetInvalid(HdrKx),
		pisa.SetInvalid(HdrInt),
	}
	for _, aux := range integ.Aux {
		ops = append(ops, pisa.SetInvalid(aux.Header))
	}
	ops = append(ops, digestOps(cfg, alg, mf(mDig), pisa.R(mf(mKey)), regDigestOperands())...)
	ops = append(ops,
		pisa.Set(pisa.F(HdrAuth, "digest"), pisa.R(mf(mDig))),
		pisa.ToCPU(),
	)
	return ops
}

// buildDispatch routes a verified message by payload kind.
func buildDispatch(cfg Config, integ Integration, alg pisa.HashAlg) []pisa.Op {
	ops := []pisa.Op{
		pisa.If(pisa.Valid(HdrReg), buildRegDispatch(cfg, alg)),
		pisa.If(pisa.Valid(HdrKx), buildKxDispatch(cfg, alg)),
	}
	for _, aux := range integ.Aux {
		accepted := []pisa.Op{pisa.Set(mf(MAuthOK), pisa.C(1))}
		if integ.LinkTelemetry {
			accepted = append(accepted,
				pisa.RegRMW(mf(mFbOld), RegFbOK, pisa.R(mf(mKeyIdx)), pisa.RMWAdd, pisa.C(1)))
		}
		ops = append(ops, pisa.If(pisa.Valid(aux.Header), accepted))
	}
	return ops
}

func buildRegDispatch(cfg Config, alg pisa.HashAlg) []pisa.Op {
	var ops []pisa.Op
	if cfg.Encrypt && !cfg.Insecure {
		// §XI extension: the digest (already verified) covered the
		// ciphertext; decrypt write payloads before they reach a register.
		ops = append(ops, pisa.If(pisa.Eq(pisa.R(pisa.F(HdrAuth, "msgType")), pisa.C(MsgWriteReq)),
			encryptOps(alg, EncLabelReqLo, EncLabelReqHi)))
	}
	ops = append(ops,
		pisa.Set(mf(mMiss), pisa.C(1)),
		pisa.Apply(TableRegMap),
		pisa.If(pisa.Eq(pisa.R(mf(mMiss)), pisa.C(0)),
			[]pisa.Op{pisa.Set(pisa.F(HdrAuth, "msgType"), pisa.C(MsgAck))},
			[]pisa.Op{pisa.Set(pisa.F(HdrAuth, "msgType"), pisa.C(MsgNAck))},
		),
	)
	if cfg.Encrypt && !cfg.Insecure {
		// Encrypt the (possibly read) value before the response digest.
		ops = append(ops, encryptOps(alg, EncLabelRespLo, EncLabelRespHi)...)
	}
	if !cfg.Insecure {
		ops = append(ops, digestOps(cfg, alg, mf(mDig), pisa.R(mf(mKey)), regDigestOperands())...)
		ops = append(ops, pisa.Set(pisa.F(HdrAuth, "digest"), pisa.R(mf(mDig))))
	}
	ops = append(ops, pisa.ToCPU())
	return ops
}

func buildKxDispatch(cfg Config, alg pisa.HashAlg) []pisa.Op {
	hk := func(f string) pisa.FieldRef { return pisa.F(HdrKx, f) }
	hi := func(f string) pisa.FieldRef { return pisa.F(HdrInt, f) }
	msgType := pisa.F(HdrAuth, "msgType")
	dh := crypto.DefaultDHParams()

	// Common pa_int setup used by the responder branches.
	intSetup := []pisa.Op{
		pisa.SetValid(HdrInt),
		pisa.Set(hi("s1"), pisa.R(hk("salt"))),
		pisa.Set(hi("inport"), pisa.R(mf(pisa.MetaIngressPort))),
		pisa.Set(hi("idx"), pisa.R(mf(mKeyIdx))),
		pisa.If(pisa.Ne(pisa.R(hk("port")), pisa.C(0)), []pisa.Op{
			pisa.Set(hi("idx"), pisa.R(hk("port"))),
		}),
	}

	eak := append(append([]pisa.Op{}, intSetup...),
		pisa.Set(hi("newkey"), pisa.C(cfg.Seed)), // KDF secret = K_seed
		pisa.Set(hi("resp"), pisa.C(1)),
		pisa.Random(hk("salt")), // S2
		pisa.Set(msgType, pisa.C(MsgEAKSalt2)),
		pisa.Set(hk("phase"), pisa.C(PhaseInstall)),
		pisa.Recirculate(),
	)

	adhkd1 := append(append([]pisa.Op{}, intSetup...),
		pisa.Set(hi("resp"), pisa.C(1)),
		pisa.Random(mf(mR)), // R2
		// K_pms = (PK1 AND R2) XOR P — before overwriting pk.
		pisa.And(hi("newkey"), pisa.R(hk("pk")), pisa.R(mf(mR))),
		pisa.Xor(hi("newkey"), pisa.R(hi("newkey")), pisa.C(dh.P)),
		// PK2 = (G AND R2) XOR (P AND R2).
		pisa.And(mf(mT1), pisa.C(dh.G), pisa.R(mf(mR))),
		pisa.And(mf(mT2), pisa.C(dh.P), pisa.R(mf(mR))),
		pisa.Xor(hk("pk"), pisa.R(mf(mT1)), pisa.R(mf(mT2))),
		pisa.Random(hk("salt")), // S2
		pisa.Set(msgType, pisa.C(MsgADHKD2)),
		pisa.Set(hk("phase"), pisa.C(PhaseInstall)),
		pisa.Recirculate(),
	)

	adhkd2 := append(append([]pisa.Op{}, intSetup...),
		pisa.Set(hi("resp"), pisa.C(0)),
		// Recover initiator state: R1 and S1 stashed at the slot index.
		// R1 is consumed (zeroed) on read so a replayed ADHKD2 cannot
		// reinstall or corrupt the key.
		pisa.RegRMW(mf(mR), RegKxR, pisa.R(hi("idx")), pisa.RMWWrite, pisa.C(0)),
		pisa.RegRead(hi("s1"), RegKxS, pisa.R(hi("idx"))),
		pisa.If(pisa.Eq(pisa.R(mf(mR)), pisa.C(0)),
			[]pisa.Op{
				pisa.SetInvalid(HdrInt),
				pisa.Set(mf(mAlertRsn), pisa.C(AlertReplay)),
			},
			[]pisa.Op{
				// K_pms = (PK2 AND R1) XOR P.
				pisa.And(hi("newkey"), pisa.R(hk("pk")), pisa.R(mf(mR))),
				pisa.Xor(hi("newkey"), pisa.R(hi("newkey")), pisa.C(dh.P)),
				pisa.Set(hk("phase"), pisa.C(PhaseInstall)),
				pisa.Recirculate(),
			},
		),
	)

	// Shared initiator start: generate R1/S1, stash them, emit ADHKD1
	// fields. portKeyInit responds via the controller; portKeyUpdate
	// recirculates to sign with the port key and sends directly.
	initStart := []pisa.Op{
		pisa.Random(mf(mR)),
		pisa.RegWrite(RegKxR, pisa.R(hk("port")), pisa.R(mf(mR))),
		pisa.Random(mf(mLo)),
		pisa.RegWrite(RegKxS, pisa.R(hk("port")), pisa.R(mf(mLo))),
		pisa.Set(hk("salt"), pisa.R(mf(mLo))),
		pisa.And(mf(mT1), pisa.C(dh.G), pisa.R(mf(mR))),
		pisa.And(mf(mT2), pisa.C(dh.P), pisa.R(mf(mR))),
		pisa.Xor(hk("pk"), pisa.R(mf(mT1)), pisa.R(mf(mT2))),
		pisa.Set(msgType, pisa.C(MsgADHKD1)),
	}

	portInit := append(append([]pisa.Op{}, initStart...), digestOps(cfg, alg, mf(mDig), pisa.R(mf(mKey)), kxDigestOperands())...)
	portInit = append(portInit,
		// Respond to the controller under the same local key (the
		// initKeyExch redirection of Fig. 14(c)).
		pisa.Set(pisa.F(HdrAuth, "digest"), pisa.R(mf(mDig))),
		pisa.ToCPU(),
	)

	portUpdate := append(append([]pisa.Op{}, initStart...),
		// Tag with the current port-key version and a fresh per-port seq,
		// then recirculate: the forward pass loads the port key (a second
		// pa_keys access is illegal in this pass) and sends on the port.
		pisa.RegRead(mf(mVerCur), RegVer, pisa.R(hk("port"))),
		pisa.Set(pisa.F(HdrAuth, "keyVersion"), pisa.R(mf(mVerCur))),
		pisa.RegRMW(mf(mSeqOut), RegSeqOut, pisa.R(hk("port")), pisa.RMWAdd, pisa.C(1)),
		pisa.Add(mf(mSeqOut), pisa.R(mf(mSeqOut)), pisa.C(1)),
		pisa.Set(pisa.F(HdrAuth, "seqNum"), pisa.R(mf(mSeqOut))),
		pisa.Set(hk("phase"), pisa.C(PhaseForward)),
		pisa.Recirculate(),
	)

	// Dispatch on a snapshot: branches rewrite msgType into the response
	// type, which must not re-trigger later branches.
	in := pisa.R(mf(mMsgIn))
	return []pisa.Op{
		pisa.Set(mf(mMsgIn), pisa.R(msgType)),
		pisa.If(pisa.Eq(in, pisa.C(MsgEAKSalt1)), eak),
		pisa.If(pisa.Eq(in, pisa.C(MsgADHKD1)), adhkd1),
		pisa.If(pisa.Eq(in, pisa.C(MsgADHKD2)), adhkd2),
		pisa.If(pisa.Eq(in, pisa.C(MsgPortKeyInit)), portInit),
		pisa.If(pisa.Eq(in, pisa.C(MsgPortKeyUpdate)), portUpdate),
	}
}

// buildPhases handles recirculated key-exchange passes: the KDF+install
// pass and the initiator forward pass.
func buildPhases(cfg Config, alg pisa.HashAlg) []pisa.Op {
	hk := func(f string) pisa.FieldRef { return pisa.F(HdrKx, f) }
	hi := func(f string) pisa.FieldRef { return pisa.F(HdrInt, f) }

	// --- Install pass ---
	// Order matters: the response is SIGNED FIRST, with the same key the
	// request was verified under, before any register is overwritten. If a
	// response is lost and the initiator retries, the retried exchange's
	// install can land on the same version slot the old key occupies;
	// signing before installing guarantees the response is still
	// authenticated under the key the peer expects.

	// Response emission (responder side).
	respond := []pisa.Op{
		pisa.Set(mf(mKeyIdx), pisa.R(hi("inport"))),
		pisa.If(pisa.Eq(pisa.R(hi("inport")), pisa.C(pisa.CPUPort)), []pisa.Op{
			pisa.Set(mf(mKeyIdx), pisa.C(KeyIndexLocal)),
		}),
		pisa.And(mf(mVBit), pisa.R(pisa.F(HdrAuth, "keyVersion")), pisa.C(1)),
		pisa.If(pisa.Eq(pisa.R(mf(mVBit)), pisa.C(0)),
			[]pisa.Op{pisa.RegRead(mf(mKey), RegKeysV0, pisa.R(mf(mKeyIdx)))},
			[]pisa.Op{pisa.RegRead(mf(mKey), RegKeysV1, pisa.R(mf(mKeyIdx)))},
		),
		pisa.Set(hk("phase"), pisa.C(PhaseVerify)),
	}
	respond = append(respond, digestOps(cfg, alg, mf(mDig), pisa.R(mf(mKey)), kxDigestOperands())...)
	respond = append(respond,
		pisa.Set(pisa.F(HdrAuth, "digest"), pisa.R(mf(mDig))),
		pisa.If(pisa.Eq(pisa.R(hi("inport")), pisa.C(pisa.CPUPort)),
			[]pisa.Op{pisa.ToCPU()},
			[]pisa.Op{pisa.Forward(pisa.R(pisa.F(HdrInt, "inport")))},
		),
	)
	// Initiator completion (resp=0): the packet still traverses egress so
	// egress key installation happens; egress drops it afterwards.
	install := []pisa.Op{
		pisa.If(pisa.Eq(pisa.R(hi("resp")), pisa.C(1)),
			respond,
			[]pisa.Op{pisa.Set(hk("phase"), pisa.C(PhaseVerify)), pisa.ToCPU()},
		),
	}

	// KDF (Extract-and-Expand) and key installation.
	install = append(install,
		// S = S1 || S2 (two 32-bit halves).
		pisa.Shl(mf(mS), pisa.R(hi("s1")), pisa.C(32)),
		pisa.Or(mf(mS), pisa.R(mf(mS)), pisa.R(hk("salt"))),
		// Extract: PRF keyed by the salt over secret||pers||label.
		pisa.KeyedHash(mf(mLo), alg, pisa.R(mf(mS)),
			pisa.R(hi("newkey")), pisa.C(cfg.Personalization), pisa.C(crypto.KDFLabelExtractLo)),
		pisa.KeyedHash(mf(mHi), alg, pisa.R(mf(mS)),
			pisa.R(hi("newkey")), pisa.C(cfg.Personalization), pisa.C(crypto.KDFLabelExtractHi)),
		pisa.Shl(mf(mPrk), pisa.R(mf(mHi)), pisa.C(32)),
		pisa.Or(mf(mPrk), pisa.R(mf(mPrk)), pisa.R(mf(mLo))),
		pisa.Set(mf(mOut), pisa.R(mf(mPrk))),
	)
	for r := 0; r < kdfRounds; r++ {
		install = append(install,
			pisa.KeyedHash(mf(mLo), alg, pisa.R(mf(mPrk)),
				pisa.R(mf(mOut)), pisa.C(cfg.Personalization), pisa.C(crypto.KDFLabelExpandLo)),
			pisa.KeyedHash(mf(mHi), alg, pisa.R(mf(mPrk)),
				pisa.R(mf(mOut)), pisa.C(cfg.Personalization), pisa.C(crypto.KDFLabelExpandHi)),
			pisa.Shl(mf(mOut), pisa.R(mf(mHi)), pisa.C(32)),
			pisa.Or(mf(mOut), pisa.R(mf(mOut)), pisa.R(mf(mLo))),
		)
	}
	install = append(install,
		pisa.Set(hi("newkey"), pisa.R(mf(mOut))),
		// Install at the slot's next version: the slot's own counter, not
		// the message's keyVersion — for controller-relayed port-key
		// exchanges the authenticating (local) key's version is unrelated
		// to the port slot's. The RMW bumps and returns the old value in
		// one access.
		pisa.RegRMW(mf(mVerCur), RegVer, pisa.R(hi("idx")), pisa.RMWAdd, pisa.C(1)),
		pisa.Add(mf(mNewVer), pisa.R(mf(mVerCur)), pisa.C(1)),
		pisa.And(mf(mNewBit), pisa.R(mf(mNewVer)), pisa.C(1)),
		pisa.If(pisa.Eq(pisa.R(mf(mNewBit)), pisa.C(0)),
			[]pisa.Op{pisa.RegWrite(RegKeysV0, pisa.R(hi("idx")), pisa.R(mf(mOut)))},
			[]pisa.Op{pisa.RegWrite(RegKeysV1, pisa.R(hi("idx")), pisa.R(mf(mOut)))},
		),
	)

	// --- Forward pass (initiator ADHKD1 toward a neighbor port) ---
	forward := []pisa.Op{
		pisa.And(mf(mVBit), pisa.R(pisa.F(HdrAuth, "keyVersion")), pisa.C(1)),
		pisa.If(pisa.Eq(pisa.R(mf(mVBit)), pisa.C(0)),
			[]pisa.Op{pisa.RegRead(mf(mKey), RegKeysV0, pisa.R(hk("port")))},
			[]pisa.Op{pisa.RegRead(mf(mKey), RegKeysV1, pisa.R(hk("port")))},
		),
		pisa.Forward(pisa.R(hk("port"))),
		pisa.Set(hk("port"), pisa.C(0)), // receiver installs at its ingress
		pisa.Set(hk("phase"), pisa.C(PhaseVerify)),
	}
	forward = append(forward, digestOps(cfg, alg, mf(mDig), pisa.R(mf(mKey)), kxDigestOperands())...)
	forward = append(forward, pisa.Set(pisa.F(HdrAuth, "digest"), pisa.R(mf(mDig))))

	return []pisa.Op{
		pisa.If(pisa.Eq(pisa.R(mf(mInPhase)), pisa.C(PhaseInstall)), install),
		pisa.If(pisa.Eq(pisa.R(mf(mInPhase)), pisa.C(PhaseForward)), forward),
	}
}

func buildEgress(prog *pisa.Program, cfg Config, integ Integration, alg pisa.HashAlg) ([]pisa.Op, error) {
	var ops []pisa.Op

	if !cfg.Insecure {
		// Egress-side key installation during the install pass.
		ops = append(ops, pisa.If(pisa.Valid(HdrInt), []pisa.Op{
			pisa.RegRMW(mf(mEgVer), RegEgVer, pisa.R(pisa.F(HdrInt, "idx")), pisa.RMWAdd, pisa.C(1)),
			pisa.Add(mf(mNewVer), pisa.R(mf(mEgVer)), pisa.C(1)),
			pisa.And(mf(mNewBit), pisa.R(mf(mNewVer)), pisa.C(1)),
			pisa.If(pisa.Eq(pisa.R(mf(mNewBit)), pisa.C(0)),
				[]pisa.Op{pisa.RegWrite(RegEgKeysV0, pisa.R(pisa.F(HdrInt, "idx")), pisa.R(pisa.F(HdrInt, "newkey")))},
				[]pisa.Op{pisa.RegWrite(RegEgKeysV1, pisa.R(pisa.F(HdrInt, "idx")), pisa.R(pisa.F(HdrInt, "newkey")))},
			),
			pisa.If(pisa.Eq(pisa.R(pisa.F(HdrInt, "resp")), pisa.C(0)), []pisa.Op{pisa.Drop()}),
			pisa.SetInvalid(HdrInt),
		}))
	} else {
		ops = append(ops, pisa.If(pisa.Valid(HdrInt), []pisa.Op{pisa.SetInvalid(HdrInt)}))
	}

	// Per-replica feedback signing with the egress port key.
	for _, aux := range integ.Aux {
		inputs, err := auxDigestOperands(prog, aux.Header)
		if err != nil {
			return nil, err
		}
		if cfg.Insecure {
			continue
		}
		egPort := pisa.R(mf(pisa.MetaEgressPort))
		sign := []pisa.Op{
			pisa.RegRead(mf(mEgVer), RegEgVer, egPort),
			pisa.And(mf(mEgBit), pisa.R(mf(mEgVer)), pisa.C(1)),
			pisa.If(pisa.Eq(pisa.R(mf(mEgBit)), pisa.C(0)),
				[]pisa.Op{pisa.RegRead(mf(mEgKey), RegEgKeysV0, egPort)},
				[]pisa.Op{pisa.RegRead(mf(mEgKey), RegEgKeysV1, egPort)},
			),
			pisa.Set(pisa.F(HdrAuth, "keyVersion"), pisa.R(mf(mEgVer))),
			pisa.RegRMW(mf(mEgSeq), RegEgSeq, egPort, pisa.RMWAdd, pisa.C(1)),
			pisa.Add(mf(mEgSeq), pisa.R(mf(mEgSeq)), pisa.C(1)),
			pisa.Set(pisa.F(HdrAuth, "seqNum"), pisa.R(mf(mEgSeq))),
			pisa.Set(pisa.F(HdrAuth, "hdrType"), pisa.C(HdrFeedback)),
			pisa.Set(pisa.F(HdrAuth, "msgType"), pisa.C(MsgProbe)),
		}
		sign = append(sign, digestOps(cfg, alg, mf(mEgDig), pisa.R(mf(mEgKey)), inputs)...)
		sign = append(sign, pisa.Set(pisa.F(HdrAuth, "digest"), pisa.R(mf(mEgDig))))
		ops = append(ops, pisa.If(pisa.Valid(aux.Header), []pisa.Op{
			pisa.If(pisa.Ne(pisa.R(mf(pisa.MetaEgressPort)), pisa.C(pisa.CPUPort)), sign),
		}))
	}
	return ops, nil
}

// Package hula implements HULA (Katta et al., SOSR 2016), the scalable
// in-network load balancer the paper attacks and protects (Fig. 3,
// Fig. 17, Fig. 21). Probes flood from each ToR carrying the maximum link
// utilization seen along their path; every switch tracks the best next
// hop per ToR and routes flowlets along it, entirely in the data plane.
//
// The probe is registered with P4Auth as a DP-DP feedback payload: each
// forwarded replica is re-signed in the egress pipeline with that port's
// key, and arriving probes are digest-verified before they may update the
// best-hop state. A MitM forging probeUtil on a link (the paper's
// Attack 2) is detected, the probe dropped, and an alert raised; the
// compromised link's state ages out and traffic avoids it.
package hula

import (
	"encoding/binary"
	"fmt"

	"p4auth/internal/core"
	"p4auth/internal/crypto"
	"p4auth/internal/deploy"
	"p4auth/internal/pisa"
	"p4auth/internal/switchos"
)

// Packet-type tags (the shared ptype header's value).
const (
	PTypeData          = 0xD0
	PTypeInsecureProbe = 0xB0
)

// Header names.
const (
	HdrProbe = "hula"
	HdrData  = "data"
)

// Probe wire layout: dst(16) || util(32), big-endian — so the utilization
// field starts at byte offset 2 of the feedback body.
const ProbeUtilOffset = 2

// Table and action names.
const (
	TableProbeFwd    = "hula_probe_fwd"
	ActionProbeFlood = "hula_probe_flood"
	ActionProbeEnd   = "hula_probe_consume"
)

// Register names.
const (
	RegBestUtil   = "hula_best_util"
	RegBestHop    = "hula_best_hop"
	RegBestTS     = "hula_best_ts"
	RegFlowletHop = "hula_flowlet_hop"
	RegFlowletTS  = "hula_flowlet_ts"
	RegEgUtil     = "hula_eg_util"
	RegEgLast     = "hula_eg_last"
	// RegPortBlock is the degraded-routing mask, one entry per port,
	// written by the fabric supervisor over the authenticated C-DP
	// channel: a nonzero entry quarantines the port. Probes arriving on a
	// blocked port are discarded before they can touch best-path state
	// (fail-closed for authentication), and flowlets pinned to a blocked
	// hop fall back to the current best hop (fail-open for reachability).
	RegPortBlock = "hula_port_block"
)

// Params configures one HULA switch.
type Params struct {
	// SwitchID is this switch's ToR identifier (data with dst==SwitchID is
	// delivered to HostPort). It is the program's ArgSwitchID, bound per
	// switch, so it is not an input of BuildProgram.
	SwitchID int
	// Ports is the number of network ports.
	Ports int
	// HostPort delivers self-destined data (0 = drop it).
	HostPort int
	// GeneratorPort injects self-originated probes (bypasses
	// verification, like the hardware packet generator).
	GeneratorPort int
	// MaxTors bounds the per-destination state.
	MaxTors int
	// FlowletSlots is the flowlet table size (power of two).
	FlowletSlots int
	// FlowletGapNs reassigns a flowlet after this idle gap.
	FlowletGapNs uint64
	// FailTimeoutNs ages out a best path that stops being refreshed.
	FailTimeoutNs uint64
	// DecayShiftDiv scales utilization decay: one halving per
	// 2^DecayShiftDiv ns of idle time on the link.
	DecayShiftDiv uint64
	// Secure weaves P4Auth in; probes are then authenticated per hop.
	Secure bool
}

// DefaultParams returns a workable configuration.
func DefaultParams(id, ports int) Params {
	return Params{
		SwitchID:      id,
		Ports:         ports,
		HostPort:      ports, // convention: last port faces the host
		GeneratorPort: ports + 1,
		MaxTors:       64,
		FlowletSlots:  1024,
		FlowletGapNs:  200_000,    // 200 µs
		FailTimeoutNs: 10_000_000, // 10 ms
		DecayShiftDiv: 17,         // ~131 µs per halving
		Secure:        true,
	}
}

// Switch is a deployed HULA switch.
type Switch struct {
	Name   string
	Params Params
	Cfg    core.Config
	Host   *switchos.Host
	Node   *deploy.SwitchNode
	// Alerts counts P4Auth alerts raised to the control channel.
	Alerts int
}

// ArgSwitchID is the program arg a switch binds its SwitchID to
// (pisa.WithArg).
const ArgSwitchID = "switch_id"

// BuildProgram constructs the HULA data plane (optionally with P4Auth).
// p.SwitchID is not read: a switch binds it to ArgSwitchID.
func BuildProgram(p Params) (*pisa.Program, core.Config, error) {
	if p.FlowletSlots&(p.FlowletSlots-1) != 0 || p.FlowletSlots == 0 {
		return nil, core.Config{}, fmt.Errorf("hula: FlowletSlots must be a power of two, got %d", p.FlowletSlots)
	}
	prog := &pisa.Program{
		Name: "hula",
		Args: []pisa.FieldDef{{Name: ArgSwitchID, Width: 64}},
		Headers: []*pisa.HeaderDef{
			core.PTypeHeader(),
			{Name: HdrProbe, Fields: []pisa.FieldDef{
				{Name: "dst", Width: 16},
				{Name: "util", Width: 32},
			}},
			{Name: HdrData, Fields: []pisa.FieldDef{
				{Name: "dst", Width: 16},
				{Name: "flow", Width: 32},
			}},
		},
		Metadata: []pisa.FieldDef{
			{Name: "h_bu", Width: 32},
			{Name: "h_bh", Width: 16},
			{Name: "h_bt", Width: 48},
			{Name: "h_age", Width: 48},
			{Name: "h_accept", Width: 8},
			{Name: "h_idx", Width: 32},
			{Name: "h_fh", Width: 16},
			{Name: "h_fts", Width: 48},
			{Name: "h_gap", Width: 48},
			{Name: "h_nh", Width: 16},
			{Name: "h_fwd", Width: 8},
			{Name: "h_last", Width: 48},
			{Name: "h_delta", Width: 48},
			{Name: "h_shift", Width: 16},
			{Name: "h_util", Width: 32},
			{Name: "h_blk", Width: 8},
			{Name: "h_bhblk", Width: 8},
		},
		Parser: []pisa.ParserState{
			{Name: pisa.ParserStart, Extract: core.HdrPType,
				Select: pisa.F(core.HdrPType, "v"),
				Transitions: map[uint64]string{
					PTypeData: "hula_data_state",
				}},
			{Name: "hula_probe_state", Extract: HdrProbe},
			{Name: "hula_data_state", Extract: HdrData},
		},
		DeparseOrder: []string{core.HdrPType, HdrProbe, HdrData},
		Actions: []*pisa.Action{
			{Name: ActionProbeFlood, Params: []pisa.FieldDef{{Name: "group", Width: 16}},
				Body: []pisa.Op{
					pisa.Multicast(pisa.R(pisa.F(pisa.ParamHeader, "group"))),
					pisa.Set(pisa.F(pisa.MetaHeader, "h_fwd"), pisa.C(1)),
				}},
			{Name: ActionProbeEnd, Body: []pisa.Op{pisa.Drop()}},
		},
		Tables: []*pisa.Table{
			{Name: TableProbeFwd,
				Keys:    []pisa.TableKey{{Field: pisa.F(pisa.MetaHeader, pisa.MetaIngressPort), Match: pisa.MatchExact}},
				Size:    64,
				Actions: []string{ActionProbeFlood, ActionProbeEnd},
				Default: ActionProbeEnd},
		},
		Registers: []*pisa.RegisterDef{
			{Name: RegBestUtil, Width: 32, Entries: p.MaxTors},
			{Name: RegBestHop, Width: 16, Entries: p.MaxTors},
			{Name: RegBestTS, Width: 48, Entries: p.MaxTors},
			{Name: RegFlowletHop, Width: 16, Entries: p.FlowletSlots},
			{Name: RegFlowletTS, Width: 48, Entries: p.FlowletSlots},
			{Name: RegEgUtil, Width: 32, Entries: p.Ports + 2},
			{Name: RegEgLast, Width: 48, Entries: p.Ports + 2},
			{Name: RegPortBlock, Width: 8, Entries: p.Ports + 2},
		},
	}

	if !p.Secure {
		prog.Parser[0].Transitions[PTypeInsecureProbe] = "hula_probe_state"
	}

	// HULA's own control blocks go in first: AddToProgram prepends its
	// ingress (verification before HULA sees pa_ok) and appends its egress
	// (signing after HULA finalizes probe.util).
	prog.Control = buildIngress(p)
	prog.EgressControl = buildEgress(p)

	cfg := programConfig(p)
	if p.Secure {
		// Expose the HULA state for authenticated C-DP reads (the paper's
		// Table I visibility into best-path state) and the degraded-routing
		// mask for supervisor writes; LinkTelemetry exposes the per-port
		// feedback verdict counters the link supervisor polls.
		if err := core.AddToProgram(prog, cfg, core.Integration{
			Exposed:       []string{RegBestUtil, RegBestHop, RegPortBlock},
			Aux:           []core.AuxPayload{{Header: HdrProbe, ParserState: "hula_probe_state"}},
			GeneratorPort: p.GeneratorPort,
			LinkTelemetry: true,
		}); err != nil {
			return nil, cfg, err
		}
	}
	return prog, cfg, nil
}

// programConfig is the P4Auth configuration BuildProgram weaves in.
func programConfig(p Params) core.Config {
	cfg := core.DefaultConfig(p.Ports, core.DigestHalfSipHash)
	cfg.Insecure = !p.Secure
	return cfg
}

func m(f string) pisa.FieldRef { return pisa.F(pisa.MetaHeader, f) }

func buildIngress(p Params) []pisa.Op {
	probe := func(f string) pisa.FieldRef { return pisa.F(HdrProbe, f) }
	data := func(f string) pisa.FieldRef { return pisa.F(HdrData, f) }
	now := pisa.R(m(pisa.MetaTimestamp))

	// --- probe path ---
	// Replication decision first: forwarding switches fold in the
	// utilization of the link the probe just crossed, in the *data*
	// direction (data toward the probe's origin leaves this switch on the
	// probe's ingress port, so the estimate is that port's decayed TX
	// utilization; reading the egress-owned register from ingress is legal
	// on the BMv2 target HULA runs on). The consuming ToR decides on the
	// value as carried — which is what lets the paper's on-link MitM fully
	// control the advertised path utilization (Fig. 3).
	probeOps := []pisa.Op{
		pisa.Set(m("h_fwd"), pisa.C(0)),
		pisa.Apply(TableProbeFwd),
		pisa.If(pisa.Eq(pisa.R(m("h_fwd")), pisa.C(1)), []pisa.Op{
			pisa.RegRead(m("h_last"), RegEgLast, pisa.R(m(pisa.MetaIngressPort))),
			pisa.RegRead(m("h_util"), RegEgUtil, pisa.R(m(pisa.MetaIngressPort))),
			pisa.Sub(m("h_delta"), now, pisa.R(m("h_last"))),
			pisa.Shr(m("h_shift"), pisa.R(m("h_delta")), pisa.C(p.DecayShiftDiv)),
			pisa.If(pisa.Gt(pisa.R(m("h_shift")), pisa.C(31)), []pisa.Op{pisa.Set(m("h_shift"), pisa.C(31))}),
			pisa.Shr(m("h_util"), pisa.R(m("h_util")), pisa.R(m("h_shift"))),
			pisa.If(pisa.Lt(pisa.R(probe("util")), pisa.R(m("h_util"))), []pisa.Op{
				pisa.Set(probe("util"), pisa.R(m("h_util"))),
			}),
		}),
		// Best-path update.
		pisa.RegRead(m("h_bu"), RegBestUtil, pisa.R(probe("dst"))),
		pisa.RegRead(m("h_bh"), RegBestHop, pisa.R(probe("dst"))),
		pisa.RegRead(m("h_bt"), RegBestTS, pisa.R(probe("dst"))),
		pisa.Sub(m("h_age"), now, pisa.R(m("h_bt"))),
		pisa.Set(m("h_accept"), pisa.C(0)),
		// Better path.
		pisa.If(pisa.Lt(pisa.R(probe("util")), pisa.R(m("h_bu"))), []pisa.Op{pisa.Set(m("h_accept"), pisa.C(1))}),
		// Refresh from the current best hop (tracks degradation too).
		pisa.If(pisa.Eq(pisa.R(m(pisa.MetaIngressPort)), pisa.R(m("h_bh"))), []pisa.Op{pisa.Set(m("h_accept"), pisa.C(1))}),
		// No route yet.
		pisa.If(pisa.Eq(pisa.R(m("h_bh")), pisa.C(0)), []pisa.Op{pisa.Set(m("h_accept"), pisa.C(1))}),
		// Stale best path (failover, e.g. a blocked compromised link).
		pisa.If(pisa.Gt(pisa.R(m("h_age")), pisa.C(p.FailTimeoutNs)), []pisa.Op{pisa.Set(m("h_accept"), pisa.C(1))}),
		// Quarantined best hop: any surviving path beats it immediately,
		// without waiting for the failure timeout to age it out.
		pisa.RegRead(m("h_bhblk"), RegPortBlock, pisa.R(m("h_bh"))),
		pisa.If(pisa.Gt(pisa.R(m("h_bhblk")), pisa.C(0)), []pisa.Op{pisa.Set(m("h_accept"), pisa.C(1))}),
		pisa.If(pisa.Eq(pisa.R(m("h_accept")), pisa.C(1)), []pisa.Op{
			pisa.RegWrite(RegBestUtil, pisa.R(probe("dst")), pisa.R(probe("util"))),
			pisa.RegWrite(RegBestHop, pisa.R(probe("dst")), pisa.R(m(pisa.MetaIngressPort))),
			pisa.RegWrite(RegBestTS, pisa.R(probe("dst")), now),
		}),
	}
	probeGate := pisa.Valid(HdrProbe)
	// Degraded routing, fail-closed half: a probe arriving on a
	// quarantined port is discarded before it can update best-path state
	// or flood onward, so a link under repair cannot advertise itself.
	guarded := []pisa.Op{
		pisa.RegRead(m("h_blk"), RegPortBlock, pisa.R(m(pisa.MetaIngressPort))),
		pisa.If(pisa.Eq(pisa.R(m("h_blk")), pisa.C(0)), probeOps),
	}
	var probeBlock pisa.Op
	if p.Secure {
		probeBlock = pisa.If(probeGate, []pisa.Op{
			pisa.If(pisa.Eq(pisa.R(m(core.MAuthOK)), pisa.C(1)), guarded),
		})
	} else {
		probeBlock = pisa.If(probeGate, guarded)
	}

	// --- data path: flowlet routing along the best hop ---
	dataOps := []pisa.Op{
		pisa.If(pisa.Eq(pisa.R(data("dst")), pisa.R(pisa.F(pisa.ArgHeader, ArgSwitchID))),
			[]pisa.Op{pisa.Forward(pisa.C(uint64(p.HostPort)))},
			[]pisa.Op{
				pisa.Hash(m("h_idx"), pisa.HashCRC32, pisa.R(data("flow"))),
				pisa.And(m("h_idx"), pisa.R(m("h_idx")), pisa.C(uint64(p.FlowletSlots-1))),
				pisa.RegRead(m("h_fh"), RegFlowletHop, pisa.R(m("h_idx"))),
				pisa.RegRead(m("h_fts"), RegFlowletTS, pisa.R(m("h_idx"))),
				pisa.Sub(m("h_gap"), now, pisa.R(m("h_fts"))),
				pisa.RegRead(m("h_bh"), RegBestHop, pisa.R(data("dst"))),
				pisa.Set(m("h_nh"), pisa.R(m("h_fh"))),
				pisa.If(pisa.Eq(pisa.R(m("h_fh")), pisa.C(0)), []pisa.Op{pisa.Set(m("h_nh"), pisa.R(m("h_bh")))}),
				pisa.If(pisa.Gt(pisa.R(m("h_gap")), pisa.C(p.FlowletGapNs)), []pisa.Op{pisa.Set(m("h_nh"), pisa.R(m("h_bh")))}),
				// Degraded routing, fail-open half: a flowlet pinned to a
				// quarantined hop is re-steered to the best hop mid-flowlet
				// (reachability wins for data; only feedback fails closed).
				pisa.RegRead(m("h_blk"), RegPortBlock, pisa.R(m("h_nh"))),
				pisa.If(pisa.Gt(pisa.R(m("h_blk")), pisa.C(0)), []pisa.Op{pisa.Set(m("h_nh"), pisa.R(m("h_bh")))}),
				pisa.RegWrite(RegFlowletHop, pisa.R(m("h_idx")), pisa.R(m("h_nh"))),
				pisa.RegWrite(RegFlowletTS, pisa.R(m("h_idx")), now),
				pisa.Forward(pisa.R(m("h_nh"))),
			}),
	}
	return []pisa.Op{probeBlock, pisa.If(pisa.Valid(HdrData), dataOps)}
}

func buildEgress(p Params) []pisa.Op {
	now := pisa.R(m(pisa.MetaTimestamp))
	eg := pisa.R(m(pisa.MetaEgressPort))

	clampShift := []pisa.Op{
		pisa.Shr(m("h_shift"), pisa.R(m("h_delta")), pisa.C(p.DecayShiftDiv)),
		pisa.If(pisa.Gt(pisa.R(m("h_shift")), pisa.C(31)), []pisa.Op{pisa.Set(m("h_shift"), pisa.C(31))}),
	}

	// Data packets charge the egress link's utilization estimate
	// (decay-then-add, shifts only — the PISA-feasible EWMA).
	dataOps := []pisa.Op{
		pisa.RegRead(m("h_last"), RegEgLast, eg),
		pisa.RegWrite(RegEgLast, eg, now),
		pisa.Sub(m("h_delta"), now, pisa.R(m("h_last"))),
	}
	dataOps = append(dataOps, clampShift...)
	dataOps = append(dataOps,
		pisa.RegRead(m("h_util"), RegEgUtil, eg),
		pisa.Shr(m("h_util"), pisa.R(m("h_util")), pisa.R(m("h_shift"))),
		pisa.Add(m("h_util"), pisa.R(m("h_util")), pisa.R(m(pisa.MetaPktLen))),
		pisa.RegWrite(RegEgUtil, eg, pisa.R(m("h_util"))),
	)

	return []pisa.Op{
		pisa.If(pisa.Valid(HdrData), []pisa.Op{
			pisa.If(pisa.Ne(eg, pisa.C(pisa.CPUPort)), dataOps),
		}),
	}
}

// NewSwitch builds and boots a HULA switch on the BMv2 profile (the
// paper's target for the HULA experiments). Its program is compiled once
// per process for each Params but SwitchID, which is every input of
// BuildProgram: switches of one role share one compilation.
func NewSwitch(name string, p Params, randSeed uint64) (*Switch, error) {
	key := p
	key.SwitchID = 0
	compiled, err := pisa.CompileOnce(key, pisa.BMv2Profile(), func() (*pisa.Program, error) {
		prog, _, err := BuildProgram(key)
		return prog, err
	})
	if err != nil {
		return nil, err
	}
	cfg := programConfig(p)
	sw := pisa.NewSwitchFromCompiled(compiled, pisa.WithRandom(crypto.NewSeededRand(randSeed)),
		pisa.WithArg(ArgSwitchID, uint64(p.SwitchID)))
	host := switchos.NewHost(name, sw, switchos.DefaultCosts())
	if p.Secure {
		if err := core.Boot(sw, cfg); err != nil {
			return nil, err
		}
	}
	s := &Switch{Name: name, Params: p, Cfg: cfg, Host: host}
	s.Node = &deploy.SwitchNode{Host: host, OnPacketIn: func(data []byte) {
		if msg, err := core.DecodeMessage(data); err == nil && msg.HdrType == core.HdrAlert {
			s.Alerts++
		}
	}}
	return s, nil
}

// SetProbeFlood configures probe replication: probes arriving on
// ingressPort flood to outPorts (empty = consume).
func (s *Switch) SetProbeFlood(ingressPort int, outPorts []int) error {
	if len(outPorts) == 0 {
		return s.Host.SW.InsertEntry(TableProbeFwd, pisa.Entry{
			Key:    []pisa.KeyMatch{pisa.EKey(uint64(ingressPort))},
			Action: ActionProbeEnd,
		})
	}
	group := uint64(0x100 + ingressPort)
	s.Host.SW.SetMulticastGroup(group, outPorts)
	return s.Host.SW.InsertEntry(TableProbeFwd, pisa.Entry{
		Key:    []pisa.KeyMatch{pisa.EKey(uint64(ingressPort))},
		Action: ActionProbeFlood,
		Params: []uint64{group},
	})
}

var probeDef = &pisa.HeaderDef{Name: HdrProbe, Fields: []pisa.FieldDef{
	{Name: "dst", Width: 16}, {Name: "util", Width: 32},
}}

// ProbePacket crafts an origin probe for dst. In secure mode it is a
// P4Auth feedback message with a zero digest — it must enter through the
// generator port, which bypasses verification; egress signs it.
func ProbePacket(dst uint16, secure bool) ([]byte, error) {
	body, err := pisa.PackHeader(probeDef, []uint64{uint64(dst), 0})
	if err != nil {
		return nil, err
	}
	if secure {
		m := &core.Message{
			Header: core.Header{HdrType: core.HdrFeedback, MsgType: core.MsgProbe},
			Aux:    body,
		}
		return m.Encode()
	}
	return append([]byte{PTypeInsecureProbe}, body...), nil
}

// DataPacket crafts a data packet for dst with a flow identifier and
// payload size.
func DataPacket(dst uint16, flow uint32, payloadBytes int) ([]byte, error) {
	return AppendDataPacket(nil, dst, flow, payloadBytes), nil
}

// AppendDataPacket appends the data packet DataPacket crafts to buf, for
// a sender that reuses one buffer. Data wire layout: ptype(8) || dst(16)
// || flow(32), big-endian, then a zero payload.
func AppendDataPacket(buf []byte, dst uint16, flow uint32, payloadBytes int) []byte {
	buf = append(buf, PTypeData)
	buf = binary.BigEndian.AppendUint16(buf, dst)
	buf = binary.BigEndian.AppendUint32(buf, flow)
	return append(buf, make([]byte, payloadBytes)...)
}

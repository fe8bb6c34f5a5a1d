// Package chaos holds the seeded fault-injection harnesses for the
// P4Auth control and data planes, and the kernel they share (this file;
// DESIGN.md, "Chaos kernel"). RunGroup and RunHierarchy serve the
// product's reference runs and reports; Run and RunFabric, which only
// tests call, live in test files. Each harness is a fault script over the
// kernel: option defaults, one ordered scenario table that validation and
// dispatch both read, and the order in which it calls the checks below.
//
// The contract is bytes: every pinned run's trace is hashed in
// testdata/trace_goldens.txt, so every check takes the caller's label and
// leaves the clean-run trace line to the call site where harnesses
// differ. The wording of a VIOLATION line is not pinned.
package chaos

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"p4auth/internal/controller"
	"p4auth/internal/core"
	"p4auth/internal/crypto"
	"p4auth/internal/deploy"
	"p4auth/internal/ha"
	"p4auth/internal/netsim"
	"p4auth/internal/obs"
	"p4auth/internal/pisa"
)

// Recorder is the deterministic event log of one run.
type Recorder struct {
	// Trace is the deterministic event log.
	Trace []string
	// Violations lists every invariant breach; empty means the run is
	// clean.
	Violations []string
	sim        *netsim.Sim
}

// NewRecorder returns an empty log stamped off sim's virtual clock.
func NewRecorder(sim *netsim.Sim) Recorder { return Recorder{sim: sim} }

// Tracef appends one timestamped line to the trace.
func (r *Recorder) Tracef(format string, args ...interface{}) {
	r.Trace = append(r.Trace,
		fmt.Sprintf("t=%-12v ", r.sim.Now())+fmt.Sprintf(format, args...))
}

// Violatef records an invariant breach and traces it.
func (r *Recorder) Violatef(format string, args ...interface{}) {
	v := fmt.Sprintf(format, args...)
	r.Violations = append(r.Violations, v)
	r.Tracef("VIOLATION: %s", v)
}

// AtMostOneActive requires that at most one of a tier's replicas passes
// its fence right now. It returns the count and the space-prefixed
// holder names for the caller's trace line.
func (r *Recorder) AtMostOneActive(label string, reps []*ha.Replica) (int, string) {
	n, holders := 0, ""
	for _, rep := range reps {
		if rep.IsActive() {
			n++
			holders += " " + rep.Name()
		}
	}
	if n > 1 {
		r.Violatef("%s: %d fenced actives at one instant:%s", label, n, holders)
	}
	return n, holders
}

// auditTable ties each counter (or sum of counters) to the audit events
// that must explain it, one event per count: all events of the type, or
// only those naming the given cause where one type carries several
// transitions. Rows without counters only require a cause. Instruments
// a run never touches reconcile as 0 == 0, so every harness applies the
// whole table.
var auditTable = []struct {
	event    obs.EventType
	cause    string
	counters []string
}{
	{obs.EvFloorBump, "", []string{"ctl.floor_bumps"}},
	{obs.EvWriteDropped, "", []string{"ctl.write_dropped"}},
	{obs.EvFencedWrite, "", []string{"ha.fenced_writes", "ha.fenced_persists"}},
	{obs.EvFailover, "", []string{"ha.failovers"}},
	{obs.EvElection, "", []string{"ha.elections"}},
	{obs.EvDegraded, "", []string{"ha.degraded_enters", "ha.degraded_exits", "ha.degraded_exhausted"}},
	{obs.EvBrokerGrant, "", []string{"hier.grants"}},
	{obs.EvWANDegraded, "enter", []string{"hier.degraded_enters"}},
	{obs.EvWANDegraded, "exit", []string{"hier.degraded_exits"}},
	{obs.EvWANDegraded, "defer", []string{"hier.deferred_rollovers"}},
	{obs.EvLinkState, "", []string{"fabric.transitions"}},
	{obs.EvDigestMismatch, "", nil},
	{obs.EvReplayRejected, "", nil},
	{obs.EvRolloverRollback, "", nil},
	{obs.EvWALSettle, "", nil},
}

// AuditReconciled is the observability completeness sweep: everything
// the metrics counted is explained by exactly as many audit events, each
// naming a cause. Counters and the audit ring outlive controller
// generations, so the comparison covers the whole run so far.
func (r *Recorder) AuditReconciled(label string, ob *obs.Observer) {
	if n := ob.Audit.Evicted(); n > 0 {
		// The ring wrapped; counts can no longer be reconciled. A chaos
		// run should never come close to the default capacity.
		r.Violatef("%s: audit ring evicted %d events", label, n)
		return
	}
	// One read of the ring: each event is checked for a cause once and
	// counted in every row it matches.
	audited := make([]uint64, len(auditTable))
	for _, e := range ob.Audit.Events() {
		listed := false
		for i, row := range auditTable {
			if row.event != e.Type {
				continue
			}
			listed = true
			if row.cause == "" || e.Cause == row.cause {
				audited[i]++
			}
		}
		if listed && e.Cause == "" {
			r.Violatef("%s: audit event #%d (%s on %s) names no cause", label, e.ID, e.Type, e.Actor)
		}
	}
	for i, row := range auditTable {
		if row.counters == nil {
			continue
		}
		var counted uint64
		for _, name := range row.counters {
			counted += ob.Metrics.Counter(name).Load()
		}
		if counted != audited[i] {
			r.Violatef("%s: %s counted %d but %d %s audit events (cause %q) explain it",
				label, strings.Join(row.counters, "+"), counted, audited[i], row.event, row.cause)
		}
	}
}

// intn returns a draw in [0, n) from a run's choice stream. The stream
// is crypto.SeededRand (splitmix64: small, seedable, and stable across Go
// versions, which math/rand's shuffling is not guaranteed to be); each
// harness salts the run seed with its own constant.
func intn(r *crypto.SeededRand, n int) int { return int(r.Uint64() % uint64(n)) }

// latEntries sizes the "lat" register every fixture switch declares.
// Loads keep to slots below latEntries-2: that slot is the harnesses'
// journal/outage probe, and the last one is forgeryIndex.
const latEntries = 8

// forgeryIndex is the lat slot reserved for forged writes; no harness
// writes it legitimately, so any non-zero value is a violation.
const forgeryIndex = latEntries - 1

// Fixture is the fleet the control-plane harnesses and p4auth-inspect's
// metrics reference run drive: switches with a "lat" register on one
// virtual clock, built here or, for RunHierarchy, wrapped. Callers add
// their own adjacencies, store, observer and replica wrapping.
type Fixture struct {
	Sim   *netsim.Sim
	Names []string
	sw    map[string]*deploy.Switch
	// shadow models the expected "lat" contents per switch; a reboot
	// wipes user registers (device snapshots persist only P4Auth state).
	shadow map[string][]uint64
	// floors holds the last observed RegSeq file per switch for
	// floorsMonotone.
	floors map[string][]uint64
}

// NewFixture builds one 4-port switch per name on a fresh simulator.
func NewFixture(names ...string) (*Fixture, error) {
	sw := map[string]*deploy.Switch{}
	for _, n := range names {
		s, err := deploy.Build(deploy.SwitchSpec{
			Name:  n,
			Ports: 4,
			Registers: []*pisa.RegisterDef{
				{Name: "lat", Width: 32, Entries: latEntries},
			},
		})
		if err != nil {
			return nil, err
		}
		sw[n] = s
	}
	return wrapFixture(netsim.NewSim(), names, func(n string) *deploy.Switch { return sw[n] }), nil
}

// wrapFixture is the fixture over switches built elsewhere, each with a
// "lat" register of latEntries slots, on sim's clock.
func wrapFixture(sim *netsim.Sim, names []string, switchOf func(string) *deploy.Switch) *Fixture {
	f := &Fixture{
		Sim:    sim,
		Names:  names,
		sw:     map[string]*deploy.Switch{},
		shadow: map[string][]uint64{},
		floors: map[string][]uint64{},
	}
	for _, n := range names {
		f.sw[n] = switchOf(n)
		f.shadow[n] = make([]uint64, latEntries)
	}
	return f
}

// NewController returns a controller over the whole fixture: key
// material seeded by seed, the resilient retry policy with its backoff
// on the fixture's clock, every switch registered 50us away.
func (f *Fixture) NewController(seed uint64) (*controller.Controller, error) {
	c := controller.New(crypto.NewSeededRand(seed))
	c.SetRetryPolicy(controller.ResilientRetryPolicy())
	c.UseClock(f.Sim)
	for _, n := range f.Names {
		s := f.sw[n]
		if err := c.Register(n, s.Host, s.Cfg, 50*time.Microsecond); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// readFloors returns the full RegSeq file of a switch (replay floors for
// every slot and stream).
func (f *Fixture) readFloors(n string) []uint64 {
	var out []uint64
	sw := f.sw[n].Host.SW
	for i := 0; i < 64; i++ {
		v, err := sw.RegisterRead(core.RegSeq, i)
		if err != nil {
			break
		}
		out = append(out, v)
	}
	return out
}

// kernel is what the fleet invariants need: the run's recorder, its
// fixture and its choice stream. The control-plane harnesses embed it.
type kernel struct {
	*Recorder
	*Fixture
	rng *crypto.SeededRand
}

// floorsMonotone requires that no replay floor on any switch sits below
// the previous sweep's reading, then records the current one (the first
// call only records). A harness that cold-boots a switch sets its record
// to nil: the boot wipes the floors together with the keys that made old
// traffic verifiable, so there is nothing to regress from.
func (k *kernel) floorsMonotone(label string) {
	for _, n := range k.Names {
		cur := k.readFloors(n)
		for i, old := range k.floors[n] {
			if i < len(cur) && cur[i] < old {
				k.Violatef("%s: %s replay floor %d regressed %d -> %d", label, n, i, old, cur[i])
			}
		}
		k.floors[n] = cur
	}
}

// noDanglingIntents requires that c's write journal holds no intent
// without an outcome, on any switch. It returns the journal length per
// switch, in Names order.
func (k *kernel) noDanglingIntents(label string, c *controller.Controller) []int {
	lens := make([]int, len(k.Names))
	for i, n := range k.Names {
		entries, err := c.JournalEntries(n)
		if err != nil {
			k.Violatef("%s: %s: JournalEntries: %v", label, n, err)
			continue
		}
		for _, e := range entries {
			if e.State == core.WriteIntent {
				k.Violatef("%s: dangling journal intent: %s", label, e.Dump())
			}
		}
		lens[i] = len(entries)
	}
	return lens
}

// shadowMatches reads every loaded (non-zero) shadow slot back through c
// and requires device state to match.
func (k *kernel) shadowMatches(label string, c *controller.Controller) {
	for _, n := range k.Names {
		for idx, want := range k.shadow[n][:latEntries-2] {
			if want == 0 {
				continue
			}
			got, _, err := c.ReadRegister(n, "lat", uint32(idx))
			if err != nil {
				k.Violatef("%s: read %s lat[%d]: %v", label, n, idx, err)
				return
			}
			if got != want {
				k.Violatef("%s: %s lat[%d] = %d, want %d", label, n, idx, got, want)
			}
		}
	}
	k.Tracef("%s: fleet state verified against shadow", label)
}

// forgeryBounces injects a register write signed under a garbage key
// (drawn from the stream, so it is part of the seeded schedule) into one
// switch and requires that nothing moved: not the target register, not
// the key version, and not the replay floor (the data plane checks the
// digest before the floor, so a forgery must not even touch it). A Down
// switch answers nothing and is not probed; the result reports whether
// the probe ran.
func (k *kernel) forgeryBounces(label, n string) bool {
	s := k.sw[n]
	if s.Host.Down() {
		return false
	}
	ri, err := s.Host.Info.RegisterByName("lat")
	if err != nil {
		k.Violatef("%s: forgery setup on %s: %v", label, n, err)
		return false
	}
	dig, err := s.Cfg.Digester()
	if err != nil {
		k.Violatef("%s: forgery digester on %s: %v", label, n, err)
		return false
	}
	state := func() (st [3]uint64) {
		st[0], _ = s.Host.SW.RegisterRead("lat", forgeryIndex)
		st[1], _ = s.Host.SW.RegisterRead(core.RegVer, core.KeyIndexLocal)
		st[2], _ = s.Host.SW.RegisterRead(core.RegSeq, 0)
		return st
	}
	before := state()
	m := &core.Message{
		Header: core.Header{
			HdrType: core.HdrRegister, MsgType: core.MsgWriteReq,
			SeqNum: uint32(before[2]) + 1000, KeyVersion: uint8(before[1]),
		},
		Reg: &core.RegPayload{RegID: ri.ID, Index: forgeryIndex, Value: 0xDEAD},
	}
	if err := m.Sign(dig, 0xBAD0_0BAD^k.rng.Uint64()); err != nil {
		k.Violatef("%s: forgery sign: %v", label, err)
		return false
	}
	b, err := m.Encode()
	if err != nil {
		k.Violatef("%s: forgery encode: %v", label, err)
		return false
	}
	if _, err := s.Host.PacketOut(b); err != nil {
		k.Tracef("%s: forgery toward %s rejected at injection: %v", label, n, err)
	}
	if after := state(); after != before {
		k.Violatef("%s: FORGERY ACCEPTED on %s: (lat[%d], key version, replay floor) %v -> %v",
			label, n, forgeryIndex, before, after)
	}
	return true
}

// forgerySweep runs forgeryBounces across the fleet. The clean-run trace
// is the caller's: one line per probed switch (Run's two-switch fabric,
// where a crashed switch goes unprobed and unreported) or one per fleet.
func (k *kernel) forgerySweep(label string, perSwitch bool) {
	for _, n := range k.Names {
		if k.forgeryBounces(label, n) && perSwitch {
			k.Tracef("%s: forgery bounced off %s", label, n)
		}
	}
	if !perSwitch {
		k.Tracef("%s: forgery bounced off all %d switches", label, len(k.Names))
	}
}

// deposedWriteRefused has a superseded controller attempt a write and
// requires a refusal — by the fence, or with ErrKilled where the process
// is dead — and the slot, read back through the serving controller, still
// at before. who opens the trace line.
func (k *kernel) deposedWriteRefused(who string, deposed, serving *controller.Controller,
	n string, idx uint32, before, val uint64) {
	_, err := deposed.WriteRegister(n, "lat", idx, val)
	switch {
	case errors.Is(err, controller.ErrFenced):
		k.Tracef("%s %s lat[%d] refused by fence", who, n, idx)
	case errors.Is(err, controller.ErrKilled):
		k.Tracef("%s %s lat[%d] refused (dead)", who, n, idx)
	default:
		k.Violatef("%s %s lat[%d] = %v, want fenced/killed refusal", who, n, idx, err)
	}
	got, _, rerr := serving.ReadRegister(n, "lat", idx)
	if rerr != nil {
		k.Violatef("read-back of deposed slot %s lat[%d]: %v", n, idx, rerr)
	} else if got != before {
		k.Violatef("STALE WRITE APPLIED: %s lat[%d] %d -> %d past the fence", n, idx, before, got)
	}
}

// trigger is the counting control tap that fires a fault exactly once:
// at the at-th control packet (requests and responses share the counter,
// so odd values land on requests and even ones on responses), eating the
// packet that carries it.
type trigger struct {
	n, at int
	fired bool
	fire  func(where string)
}

// armTrigger installs the tap on c's control channels to the given
// switches.
func armTrigger(c *controller.Controller, at int, fire func(where string), channels ...string) *trigger {
	t := &trigger{at: at, fire: fire}
	tap := func(b []byte) []byte {
		t.n++
		if t.n == t.at && t.once(fmt.Sprintf("at packet %d", t.n)) {
			return nil // the packet carrying the fault dies with it
		}
		return b
	}
	for _, ch := range channels {
		if err := c.SetControlTaps(ch, tap, tap); err != nil {
			panic(err) // topology bug in the harness itself
		}
	}
	return t
}

// once fires the fault unless it already has, and reports whether it did.
func (t *trigger) once(where string) bool {
	if t.fired {
		return false
	}
	t.fired = true
	t.fire(where)
	return true
}

// ensure fires the fault now if the armed operation used fewer than at
// packets: every run must contain its fault.
func (t *trigger) ensure() { t.once("post-op") }

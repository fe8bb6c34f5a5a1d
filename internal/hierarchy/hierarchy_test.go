package hierarchy

import (
	"errors"
	"testing"

	"p4auth/internal/obs"
)

func buildBooted(t *testing.T, seed uint64) *Hierarchy {
	t.Helper()
	h, err := Build(Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHierarchyTopology(t *testing.T) {
	h, err := Build(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// k=4: 4 pods x (2 edges + 2 aggs) + 4 cores = 20 switches.
	if got := len(h.SwitchNames()); got != 20 {
		t.Fatalf("switches = %d, want 20", got)
	}
	// 16 agg-core links, 4 of which land on a core owned by the same
	// pod: 12 cross-pod links.
	if got := len(h.CrossLinks()); got != 12 {
		t.Fatalf("cross links = %d, want 12", got)
	}
	seen := map[string]bool{}
	for _, cl := range h.CrossLinks() {
		if cl.Initiator == cl.Owner {
			t.Fatalf("link %s marked cross-pod within one pod", cl.Label)
		}
		if seen[cl.Label] {
			t.Fatalf("duplicate cross link %s", cl.Label)
		}
		seen[cl.Label] = true
	}
	if len(h.Pods) != 4 || h.Global == nil {
		t.Fatalf("tiers missing: %d pods, global=%v", len(h.Pods), h.Global)
	}
}

func TestHierarchyEstablishAllCross(t *testing.T) {
	h := buildBooted(t, 42)
	if err := h.EstablishAllCross(); err != nil {
		t.Fatal(err)
	}
	for i := range h.CrossLinks() {
		cl := &h.CrossLinks()[i]
		va, vb, err := h.CrossLinkVersions(cl)
		if err != nil {
			t.Fatal(err)
		}
		if va != 1 || vb != 1 {
			t.Fatalf("%s versions %d/%d, want 1/1", cl.Label, va, vb)
		}
		ka, kb, err := h.CrossLinkKeys(cl)
		if err != nil {
			t.Fatal(err)
		}
		if ka == 0 || ka != kb {
			t.Fatalf("%s keys disagree: %#x %#x", cl.Label, ka, kb)
		}
	}
	// Every established link was authorized by a fenced, audited grant.
	grants := h.Ob.Audit.ByType(obs.EvBrokerGrant)
	epochs := map[uint64]bool{}
	granted := map[string]bool{}
	for _, e := range grants {
		epochs[e.Value] = true
		granted[e.Cause] = true
	}
	est := 0
	for _, p := range h.Pods {
		for i := range h.CrossLinks() {
			cl := &h.CrossLinks()[i]
			if cl.Initiator != p.ID {
				continue
			}
			st := p.CrossState(cl.Label)
			if st.Ver == 0 {
				continue
			}
			est++
			if !epochs[st.Epoch] {
				t.Fatalf("%s established under unaudited epoch %d", cl.Label, st.Epoch)
			}
			if !granted[cl.Label] {
				t.Fatalf("%s established with no audited grant", cl.Label)
			}
		}
	}
	if est != 12 {
		t.Fatalf("established = %d, want 12", est)
	}
	if h.Global.Served() < 12 {
		t.Fatalf("global served %d exchanges, want >= 12", h.Global.Served())
	}
	// No grant may outnumber... rather: establishes never exceed the
	// broker's served exchanges (a key without a broker round would).
	if uint64(est) > h.Global.Served() {
		t.Fatalf("%d establishes exceed %d served exchanges", est, h.Global.Served())
	}
}

func TestHierarchyWANPartitionDegradesGracefully(t *testing.T) {
	h := buildBooted(t, 7)
	if err := h.EstablishAllCross(); err != nil {
		t.Fatal(err)
	}
	pod := h.Pod(0)
	cl := firstLinkOf(h, 0)
	before := pod.CrossState(cl.Label)

	// Cut pod 0's WAN both ways. Intra-pod control writes must keep
	// landing: the pod's own lease and switches do not cross the WAN.
	h.WANLink(0).SetDown(true)
	if _, err := pod.Active().Controller().WriteRegister("e0_0", "lat", 1, 0xAB); err != nil {
		t.Fatalf("intra-pod write during WAN loss: %v", err)
	}
	if v, _ := h.Switch("e0_0").Host.SW.RegisterRead("lat", 1); v != 0xAB {
		t.Fatalf("intra-pod write did not land: %#x", v)
	}

	// A rollover while the broker is unreachable is deferred, and the
	// link keeps serving on its cached committed key.
	err := pod.RollCross(cl)
	if !errors.Is(err, ErrDeferred) {
		t.Fatalf("roll during partition: %v, want ErrDeferred", err)
	}
	if !pod.Degraded() {
		t.Fatal("pod not degraded after broker loss")
	}
	if got := pod.DeferredRollovers(); len(got) != 1 || got[0] != cl.Label {
		t.Fatalf("deferred = %v, want [%s]", got, cl.Label)
	}
	if va, vb, _ := h.CrossLinkVersions(cl); va != before.Ver || vb != before.Ver {
		t.Fatalf("versions moved during partition: %d/%d, want %d", va, vb, before.Ver)
	}
	// A second roll request does not duplicate the queue entry.
	_ = pod.RollCross(cl)
	if got := pod.DeferredRollovers(); len(got) != 1 {
		t.Fatalf("deferred after repeat = %v, want 1 entry", got)
	}

	// Heal and flush: the deferred rollover completes, degraded exits.
	h.WANLink(0).SetDown(false)
	n, err := pod.FlushDeferred()
	if err != nil || n != 1 {
		t.Fatalf("flush: n=%d err=%v", n, err)
	}
	if pod.Degraded() {
		t.Fatal("pod still degraded after heal+flush")
	}
	if va, vb, _ := h.CrossLinkVersions(cl); va != before.Ver+1 || vb != before.Ver+1 {
		t.Fatalf("post-flush versions %d/%d, want %d", va, vb, before.Ver+1)
	}
	// The degraded window is fully audited: enter, defer, exit.
	causes := map[string]int{}
	for _, e := range h.Ob.Audit.ByType(obs.EvWANDegraded) {
		if e.Actor == pod.Name {
			causes[e.Cause]++
		}
	}
	if causes["enter"] != 1 || causes["defer"] != 1 || causes["exit"] != 1 {
		t.Fatalf("degraded audit = %v, want enter/defer/exit once each", causes)
	}
}

// firstLinkOf returns the first cross link initiated by the given pod.
func firstLinkOf(h *Hierarchy, pod uint8) *CrossLink {
	for i := range h.CrossLinks() {
		if h.CrossLinks()[i].Initiator == pod {
			return &h.CrossLinks()[i]
		}
	}
	return nil
}

// Satellite: a broker timeout BEFORE any remote leg leaves both sides
// on the committed key version — the grant-first ordering means no
// switch state moves until the fenced grant is held.
func TestBrokerTimeoutBeforeExchangeLeavesCommittedKey(t *testing.T) {
	h := buildBooted(t, 11)
	if err := h.EstablishAllCross(); err != nil {
		t.Fatal(err)
	}
	cl := firstLinkOf(h, 0)
	pod := h.Pod(0)

	// Asymmetric cut: pod 0's requests toward the hub are lost, the
	// return path stays up (nothing will be answered anyway).
	if err := h.WANLink(0).SetDirDown("wan-global", true); err != nil {
		t.Fatal(err)
	}
	err := pod.EstablishCross(cl)
	if !errors.Is(err, ErrBrokerTimeout) {
		t.Fatalf("establish across dead uplink: %v, want ErrBrokerTimeout", err)
	}
	va, vb, err := h.CrossLinkVersions(cl)
	if err != nil {
		t.Fatal(err)
	}
	if va != 1 || vb != 1 {
		t.Fatalf("half-rolled link after grant timeout: %d/%d, want 1/1", va, vb)
	}
	ka, kb, _ := h.CrossLinkKeys(cl)
	if ka == 0 || ka != kb {
		t.Fatalf("committed keys perturbed: %#x %#x", ka, kb)
	}

	// Heal; the next rollover converges normally.
	if err := h.WANLink(0).SetDirDown("wan-global", false); err != nil {
		t.Fatal(err)
	}
	if err := pod.EstablishCross(cl); err != nil {
		t.Fatalf("post-heal roll: %v", err)
	}
	if va, vb, _ = h.CrossLinkVersions(cl); va != 2 || vb != 2 {
		t.Fatalf("post-heal versions %d/%d, want 2/2", va, vb)
	}
}

// Satellite: a broker timeout mid-rollover — remote half installed, the
// reply lost — is detected by the supervisor telemetry (unequal install
// counters pinpoint the interrupted exchange) and repaired forward by
// the next establishment, both sides converging on one committed key.
func TestBrokerTimeoutMidRolloverRepairsForward(t *testing.T) {
	h := buildBooted(t, 13)
	if err := h.EstablishAllCross(); err != nil {
		t.Fatal(err)
	}
	cl := firstLinkOf(h, 0)
	pod := h.Pod(0)

	// Cut the OWNER pod's uplink: the relay request still reaches the
	// owner (downlink up), the owner installs, but its RelayOK toward
	// the hub is lost. The global tier's bounded relay retries fail and
	// it refuses the initiator with a relay timeout.
	if err := h.WANLink(int(cl.Owner)).SetDirDown("wan-global", true); err != nil {
		t.Fatal(err)
	}
	err := pod.EstablishCross(cl)
	var ref *RefusedError
	if !errors.As(err, &ref) || ref.Cause != RefuseTimeout {
		t.Fatalf("mid-roll loss: %v, want RefuseTimeout refusal", err)
	}
	// Telemetry pinpoints the interrupted exchange: owner side installed
	// (2), initiator still on the committed version (1).
	va, vb, err := h.CrossLinkVersions(cl)
	if err != nil {
		t.Fatal(err)
	}
	if va != 1 || vb != 2 {
		t.Fatalf("interrupted exchange counters %d/%d, want 1/2", va, vb)
	}
	// The initiator's committed cache still names version 1 — traffic
	// keys off the committed state, not the half-rolled slot.
	if st := pod.CrossState(cl.Label); st.Ver != 1 {
		t.Fatalf("committed cache moved to %d during interrupted roll", st.Ver)
	}

	// Heal. The next establishment hits the skew refusal, realigns the
	// initiator forward, and converges both sides on a fresh key.
	if err := h.WANLink(int(cl.Owner)).SetDirDown("wan-global", false); err != nil {
		t.Fatal(err)
	}
	if err := pod.EstablishCross(cl); err != nil {
		t.Fatalf("post-heal repair: %v", err)
	}
	va, vb, _ = h.CrossLinkVersions(cl)
	if va != vb || va != 3 {
		t.Fatalf("post-repair versions %d/%d, want 3/3", va, vb)
	}
	ka, kb, _ := h.CrossLinkKeys(cl)
	if ka == 0 || ka != kb {
		t.Fatalf("post-repair keys disagree: %#x %#x", ka, kb)
	}
}

// Satellite: a lost ExchOK is answered from the global reply cache on
// retransmit — the owner pod is never driven to a second install.
func TestLostReplyDedupedByReplyCache(t *testing.T) {
	h := buildBooted(t, 17)
	if err := h.EstablishAllCross(); err != nil {
		t.Fatal(err)
	}
	cl := firstLinkOf(h, 0)
	pod := h.Pod(0)

	// Drop exactly one ExchOK toward the initiator pod.
	dropped := 0
	link := h.WANLink(0)
	if err := link.SetTap("wan-pod0", func(data []byte) []byte {
		if f, err := Decode(data); err == nil && f.Type == TExchOK && dropped == 0 {
			dropped++
			return nil
		}
		return data
	}); err != nil {
		t.Fatal(err)
	}
	relaysBefore := h.Ob.Metrics.Counter("hier.relays_served").Load()
	if err := pod.EstablishCross(cl); err != nil {
		t.Fatalf("establish with one dropped reply: %v", err)
	}
	if dropped != 1 {
		t.Fatalf("tap dropped %d replies, want 1", dropped)
	}
	// One new remote install, not two: the retransmitted ExchReq was
	// answered from the cache, not re-relayed.
	if d := h.Ob.Metrics.Counter("hier.relays_served").Load() - relaysBefore; d != 1 {
		t.Fatalf("remote installs for one roll = %d, want 1", d)
	}
	if va, vb, _ := h.CrossLinkVersions(cl); va != 2 || vb != 2 {
		t.Fatalf("versions %d/%d, want 2/2", va, vb)
	}
}

func TestHierarchyForgedFramesDropped(t *testing.T) {
	h := buildBooted(t, 23)
	if err := h.EstablishAllCross(); err != nil {
		t.Fatal(err)
	}
	cl := firstLinkOf(h, 0)
	pod := h.Pod(0)
	link := h.WANLink(0)

	// An on-path attacker rewrites every hub->pod frame: re-signed under
	// a wrong key (valid CRC, forged digest). Nothing may be applied.
	forged := 0
	if err := link.SetTap("wan-pod0", func(data []byte) []byte {
		f, err := Decode(data)
		if err != nil {
			return data
		}
		forged++
		b, _ := (&Frame{Type: f.Type, Pod: f.Pod, Seq: f.Seq, Epoch: 666, Grant: 666,
			PK: f.PK, Salt: f.Salt, Ver: f.Ver, A: f.A, PA: f.PA, B: f.B, PB: f.PB}).Encode(0xA77AC)
		return b
	}); err != nil {
		t.Fatal(err)
	}
	before := pod.CrossState(cl.Label)
	err := pod.EstablishCross(cl)
	if !errors.Is(err, ErrBrokerTimeout) {
		t.Fatalf("establish under forgery: %v, want timeout (every reply dropped)", err)
	}
	if forged == 0 {
		t.Fatal("tap never fired")
	}
	if got := h.Ob.Metrics.Counter("hier.forged_dropped").Load(); got < uint64(forged) {
		t.Fatalf("forged_dropped = %d, want >= %d", got, forged)
	}
	if st := pod.CrossState(cl.Label); st != before {
		t.Fatalf("forged frames moved committed state: %+v -> %+v", before, st)
	}
	// Bit-flip attacker: CRC catches it, counted as torn.
	if err := link.SetTap("wan-pod0", func(data []byte) []byte {
		mut := append([]byte(nil), data...)
		mut[len(mut)/2] ^= 0x40
		return mut
	}); err != nil {
		t.Fatal(err)
	}
	if err := pod.EstablishCross(cl); !errors.Is(err, ErrBrokerTimeout) {
		t.Fatalf("establish under bit flips: %v, want timeout", err)
	}
	if h.Ob.Metrics.Counter("hier.torn_dropped").Load() == 0 {
		t.Fatal("torn frames not counted")
	}
	// Clean path: service recovers at once.
	if err := link.SetTap("wan-pod0", nil); err != nil {
		t.Fatal(err)
	}
	if err := pod.EstablishCross(cl); err != nil {
		t.Fatalf("post-attack establish: %v", err)
	}
}

func TestGlobalKillThenElectionRestoresService(t *testing.T) {
	h := buildBooted(t, 29)
	if err := h.EstablishAllCross(); err != nil {
		t.Fatal(err)
	}
	cl := firstLinkOf(h, 1)
	pod := h.Pod(1)
	oldEpoch := pod.CrossState(cl.Label).Epoch

	// Kill the global active: grants are refused (no fenced broker), no
	// cross-pod key can be established in the dark window.
	act := h.Global.Group.Active()
	act.Controller().Kill()
	err := pod.EstablishCross(cl)
	var ref *RefusedError
	if !errors.As(err, &ref) || ref.Cause != RefuseUnfenced {
		t.Fatalf("establish under dead broker: %v, want RefuseUnfenced", err)
	}
	if va, vb, _ := h.CrossLinkVersions(cl); va != 1 || vb != 1 {
		t.Fatalf("versions moved under dead broker: %d/%d", va, vb)
	}

	// Wait out the dead incumbent's lease and elect a successor; the
	// epoch advances, grants resume, old-epoch grants are dead with it.
	el, err := h.Global.Elect("global-active-killed")
	if err != nil {
		t.Fatal(err)
	}
	if el.Incumbent {
		t.Fatal("election returned the dead incumbent")
	}
	if err := pod.EstablishCross(cl); err != nil {
		t.Fatalf("post-election establish: %v", err)
	}
	newEpoch := pod.CrossState(cl.Label).Epoch
	if newEpoch <= oldEpoch {
		t.Fatalf("epoch did not advance across election: %d -> %d", oldEpoch, newEpoch)
	}
	if va, vb, _ := h.CrossLinkVersions(cl); va != 2 || vb != 2 {
		t.Fatalf("post-election versions %d/%d, want 2/2", va, vb)
	}
}

func TestPodElectionKeepsServingCrossLinks(t *testing.T) {
	h := buildBooted(t, 31)
	if err := h.EstablishAllCross(); err != nil {
		t.Fatal(err)
	}
	pod := h.Pod(0)
	cl := firstLinkOf(h, 0)

	// Kill the pod's active; the standby is elected over the pod's OWN
	// lease prefix (no other tier is disturbed) and keeps both intra-pod
	// writes and cross-pod rollovers working.
	pod.Group.Active().Controller().Kill()
	if _, err := pod.Elect("pod-active-killed"); err != nil {
		t.Fatal(err)
	}
	if _, err := pod.Active().Controller().WriteRegister("e0_1", "lat", 2, 0xCD); err != nil {
		t.Fatalf("post-failover intra write: %v", err)
	}
	if err := pod.EstablishCross(cl); err != nil {
		t.Fatalf("post-failover cross roll: %v", err)
	}
	// The other pods' groups were untouched.
	for _, q := range h.Pods[1:] {
		if q.Group.Active() == nil || q.Group.Active().Fence() != nil {
			t.Fatalf("pod %d lost its active during pod 0's election", q.ID)
		}
	}
}

package controller

import (
	"errors"
	"testing"
	"time"

	"p4auth/internal/core"
	"p4auth/internal/crypto"
	"p4auth/internal/deploy"
)

// splitPair builds two switches owned by two DIFFERENT controllers —
// the cross-pod shape the split exchange exists for — with local keys
// established.
func splitPair(t *testing.T) (*Controller, *Controller, *deploy.Switch, *deploy.Switch) {
	t.Helper()
	s1 := buildSwitch(t, "s1", false)
	s2 := buildSwitch(t, "s2", false)
	cA := New(crypto.NewSeededRand(31))
	cB := New(crypto.NewSeededRand(32))
	if err := cA.Register("s1", s1.Host, s1.Cfg, 50*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	if err := cB.Register("s2", s2.Host, s2.Cfg, 50*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	if _, err := cA.LocalKeyInit("s1"); err != nil {
		t.Fatal(err)
	}
	if _, err := cB.LocalKeyInit("s2"); err != nil {
		t.Fatal(err)
	}
	return cA, cB, s1, s2
}

// runSplit performs one full split exchange between the two controllers
// and returns the agreed post-exchange version.
func runSplit(t *testing.T, cA, cB *Controller) uint8 {
	t.Helper()
	pk1, salt1, ver, _, err := cA.PortKeyExchOpen("s1", 1)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	pk2, salt2, _, err := cB.PortKeyExchRemote("s2", 1, pk1, salt1, ver)
	if err != nil {
		t.Fatalf("remote: %v", err)
	}
	if _, err := cA.PortKeyExchClose("s1", 1, pk2, salt2, ver+1); err != nil {
		t.Fatalf("close: %v", err)
	}
	return ver + 1
}

func TestPortKeyExchSplitAgreesAcrossControllers(t *testing.T) {
	cA, cB, s1, s2 := splitPair(t)
	want := runSplit(t, cA, cB)
	if want != 1 {
		t.Fatalf("post-exchange version = %d, want 1", want)
	}
	// Both data planes hold the same derived port key (version 1 -> odd
	// register) and neither controller ever learned it.
	k1, err := s1.Host.SW.RegisterRead(core.RegKeysV1, 1)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := s2.Host.SW.RegisterRead(core.RegKeysV1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if k1 == 0 || k1 != k2 {
		t.Fatalf("split port keys disagree: s1=%#x s2=%#x", k1, k2)
	}
	// A second exchange rolls both slots to version 2 with a fresh key.
	if got := runSplit(t, cA, cB); got != 2 {
		t.Fatalf("second exchange version = %d, want 2", got)
	}
	k1b, _ := s1.Host.SW.RegisterRead(core.RegKeysV0, 1)
	k2b, _ := s2.Host.SW.RegisterRead(core.RegKeysV0, 1)
	if k1b == 0 || k1b != k2b || k1b == k1 {
		t.Fatalf("rolled keys wrong: %#x %#x (old %#x)", k1b, k2b, k1)
	}
}

func TestPortKeyExchRemoteRealignsLaggingSlot(t *testing.T) {
	cA, cB, s1, s2 := splitPair(t)
	// Drive s1 one install ahead with a local throwaway, as if an earlier
	// split exchange died after the remote leg ran on the OTHER side.
	if _, err := cA.RealignPortSlot("s1", 1, 1); err != nil {
		t.Fatal(err)
	}
	// The split exchange must still converge: Remote sees ver=1 against
	// its own slot at 0, realigns forward, and both end at 2.
	pk1, salt1, ver, _, err := cA.PortKeyExchOpen("s1", 1)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	pk2, salt2, res, err := cB.PortKeyExchRemote("s2", 1, pk1, salt1, ver)
	if err != nil {
		t.Fatalf("remote: %v", err)
	}
	// One pa_ver read, one realign leg, legs 3-4: a request and its
	// answer each. The realign starts from the version already read.
	if res.Messages != 6 {
		t.Fatalf("remote with a lagging slot sent and received %d messages, want 6", res.Messages)
	}
	if _, err := cA.PortKeyExchClose("s1", 1, pk2, salt2, ver+1); err != nil {
		t.Fatalf("close: %v", err)
	}
	if ver+1 != 2 {
		t.Fatalf("post-exchange version = %d, want 2", ver+1)
	}
	v1, _ := s1.Host.SW.RegisterRead(core.RegVer, 1)
	v2, _ := s2.Host.SW.RegisterRead(core.RegVer, 1)
	if v1 != 2 || v2 != 2 {
		t.Fatalf("slot versions %d/%d, want 2/2", v1, v2)
	}
	k1, _ := s1.Host.SW.RegisterRead(core.RegKeysV0, 1)
	k2, _ := s2.Host.SW.RegisterRead(core.RegKeysV0, 1)
	if k1 == 0 || k1 != k2 {
		t.Fatalf("keys disagree after realigned exchange: %#x %#x", k1, k2)
	}
}

func TestPortKeyExchRemoteRefusesAheadSlot(t *testing.T) {
	cA, cB, _, _ := splitPair(t)
	// Remote slot runs ahead of the initiator's claimed version.
	if _, err := cB.RealignPortSlot("s2", 1, 2); err != nil {
		t.Fatal(err)
	}
	pk1, salt1, ver, _, err := cA.PortKeyExchOpen("s1", 1)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, err = cB.PortKeyExchRemote("s2", 1, pk1, salt1, ver)
	var skew *KeySkewError
	if !errors.As(err, &skew) {
		t.Fatalf("remote against an ahead slot: err=%v, want KeySkewError", err)
	}
	if !skew.PeerAhead() || skew.VerB != 2 {
		t.Fatalf("skew = %+v, want remote ahead at 2", skew)
	}
	// The initiator realigns up to the remote's version and restarts;
	// the retry converges.
	if _, err := cA.RealignPortSlot("s1", 1, skew.VerB); err != nil {
		t.Fatal(err)
	}
	if got := runSplit(t, cA, cB); got != 3 {
		t.Fatalf("post-repair version = %d, want 3", got)
	}
}

func TestRealignPortSlotRefusesBackward(t *testing.T) {
	cA, _, _, _ := splitPair(t)
	if _, err := cA.RealignPortSlot("s1", 1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := cA.RealignPortSlot("s1", 1, 1); err == nil {
		t.Fatal("backward realign accepted")
	}
}

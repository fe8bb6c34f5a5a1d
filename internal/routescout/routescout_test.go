package routescout

import (
	"testing"
	"time"

	"p4auth/internal/app"
	"p4auth/internal/trace"
)

func testTrace() []trace.Packet {
	cfg := trace.DefaultConfig(uint64(800 * time.Millisecond))
	cfg.FlowsPerSecond = 800
	cfg.Seed = 42
	return trace.Generate(cfg)
}

func run(t *testing.T, mode app.Mode, attack bool) (*System, float64, float64) {
	t.Helper()
	cfg := DefaultConfig(mode)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mode == app.ModeP4Auth {
		if _, err := s.Ctrl.LocalKeyInit("edge"); err != nil {
			t.Fatal(err)
		}
	}
	if attack {
		if err := s.InstallLatencyInflater(20); err != nil {
			t.Fatal(err)
		}
	}
	p1, p2, err := s.Run(cfg, testTrace())
	if err != nil {
		t.Fatal(err)
	}
	return s, p1, p2
}

func TestCleanSplitFavorsFastPath(t *testing.T) {
	if testing.Short() {
		t.Skip("virtual-time run")
	}
	s, p1, p2 := run(t, app.ModeInsecure, false)
	// Path 1 (2 ms) should end up carrying clearly more than path 2 (6 ms).
	if p1 <= p2 {
		t.Errorf("clean run: path1 %.2f <= path2 %.2f; fast path should win", p1, p2)
	}
	if s.Epochs == 0 {
		t.Error("controller never completed an epoch")
	}
	// The converged split register should be biased to path 1 (latency
	// ratio 6:2 -> w1 = 0.75 -> split ~192).
	if s.Split < 150 {
		t.Errorf("converged split = %d, want >= 150 of 256", s.Split)
	}
}

func TestAdversaryDivertsTrafficWithoutP4Auth(t *testing.T) {
	if testing.Short() {
		t.Skip("virtual-time run")
	}
	// The MitM inflates path 1's reported latency 20x; the controller
	// diverts most traffic to the genuinely slower path 2 (Fig. 16 center
	// bars: ~70% on path 2).
	s, _, p2 := run(t, app.ModeInsecure, true)
	if p2 < 0.60 {
		t.Errorf("attacked baseline: path2 got %.1f%%, paper reports ~70%%", 100*p2)
	}
	if s.Split > 100 {
		t.Errorf("attacked split register = %d, expected pushed toward path 2", s.Split)
	}
}

func TestP4AuthPreservesSplitUnderAttack(t *testing.T) {
	if testing.Short() {
		t.Skip("virtual-time run")
	}
	s, p1, p2 := run(t, app.ModeP4Auth, true)
	// The controller detects every tampered read, refrains from changing
	// the split, and keeps favoring the fast path via the initial 50/50
	// then... the initial split stays at 128 (50/50) since every epoch is
	// rejected.
	if s.TamperedReads == 0 {
		t.Fatal("no tampered reads detected")
	}
	if s.Epochs != 0 {
		t.Errorf("epochs completed under attack: %d (split should be frozen)", s.Epochs)
	}
	// Frozen at the initial 50/50: neither path collapses.
	if p1 < 0.35 || p2 < 0.35 {
		t.Errorf("protected split drifted: p1=%.2f p2=%.2f, want ~0.5 each", p1, p2)
	}
	if len(s.Ctrl.Alerts()) == 0 {
		t.Error("no alerts collected")
	}
}

func TestP4AuthCleanConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("virtual-time run")
	}
	s, p1, p2 := run(t, app.ModeP4Auth, false)
	if p1 <= p2 {
		t.Errorf("P4Auth clean run: path1 %.2f <= path2 %.2f", p1, p2)
	}
	if s.TamperedReads != 0 {
		t.Errorf("clean run flagged %d tampered reads", s.TamperedReads)
	}
}

func TestAPIModeWorks(t *testing.T) {
	if testing.Short() {
		t.Skip("virtual-time run")
	}
	s, p1, p2 := run(t, app.ModeAPI, false)
	if p1 <= p2 {
		t.Errorf("API mode: path1 %.2f <= path2 %.2f", p1, p2)
	}
	_ = s
}

func TestAPIModeVulnerable(t *testing.T) {
	if testing.Short() {
		t.Skip("virtual-time run")
	}
	// TLS on the controller channel does not help below the agent: the
	// API stack is interposed just the same (§I).
	_, _, p2 := run(t, app.ModeAPI, true)
	if p2 < 0.60 {
		t.Errorf("attacked API baseline: path2 got %.1f%%", 100*p2)
	}
}

// TestNewRejectsUnknownMode: a mode outside the three fails at
// construction instead of at the first controller epoch.
func TestNewRejectsUnknownMode(t *testing.T) {
	for _, mode := range []app.Mode{0, app.ModeAPI + 1} {
		if _, err := New(Config{Mode: mode}); err == nil {
			t.Errorf("New accepted mode %d", mode)
		}
	}
}

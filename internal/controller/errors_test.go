package controller

import (
	"errors"
	"fmt"
	"testing"

	"p4auth/internal/core"
)

// TestRetryErrorIdentity holds each typed error of the retry loop to the
// fmt.Errorf form it replaced: the same text, the same answers from
// errors.Is and errors.As, and the same audit cause, bare and wrapped the
// way callers wrap them.
func TestRetryErrorIdentity(t *testing.T) {
	cases := []struct {
		name      string
		typed     error
		old       error
		wantAlert *AlertError // nil: errors.As(*AlertError) must say no
	}{
		{
			name:      "tampered alert, bad digest",
			typed:     &tamperedAlert{AlertError{Switch: "s1", Reason: core.AlertBadDigest, Seq: 41}},
			old:       fmt.Errorf("%w: %w", ErrTampered, &AlertError{Switch: "s1", Reason: core.AlertBadDigest, Seq: 41}),
			wantAlert: &AlertError{Switch: "s1", Reason: core.AlertBadDigest, Seq: 41},
		},
		{
			name:      "tampered alert, replay",
			typed:     &tamperedAlert{AlertError{Switch: "edge-7", Reason: core.AlertReplay, Seq: 1 << 31}},
			old:       fmt.Errorf("%w: %w", ErrTampered, &AlertError{Switch: "edge-7", Reason: core.AlertReplay, Seq: 1 << 31}),
			wantAlert: &AlertError{Switch: "edge-7", Reason: core.AlertReplay, Seq: 1 << 31},
		},
		{
			name:  "no response",
			typed: &noResponse{sw: "s2", seq: 9, attempt: 6},
			old:   fmt.Errorf("%w: no response from %s (seq %d, attempt %d)", ErrTimeout, "s2", 9, 6),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			forms := []struct {
				how        string
				typed, old error
			}{
				{"bare", tc.typed, tc.old},
				{"wrapped by %w", fmt.Errorf("controller: s1: %w", tc.typed), fmt.Errorf("controller: s1: %w", tc.old)},
				// transactOnceLocked's exhausted-budget form.
				{"last error", fmt.Errorf("%w: %s seq %d: last error: %v", ErrTimeout, "s1", 3, tc.typed),
					fmt.Errorf("%w: %s seq %d: last error: %v", ErrTimeout, "s1", 3, tc.old)},
			}
			for _, f := range forms {
				if got, want := f.typed.Error(), f.old.Error(); got != want {
					t.Errorf("%s: Error() = %q, want %q", f.how, got, want)
				}
				for _, target := range []error{ErrTampered, ErrTimeout, ErrKilled} {
					if got, want := errors.Is(f.typed, target), errors.Is(f.old, target); got != want {
						t.Errorf("%s: errors.Is(%v) = %v, want %v", f.how, target, got, want)
					}
				}
				var gotAE, oldAE *AlertError
				gotOK, oldOK := errors.As(f.typed, &gotAE), errors.As(f.old, &oldAE)
				if gotOK != oldOK {
					t.Errorf("%s: errors.As(*AlertError) = %v, want %v", f.how, gotOK, oldOK)
				} else if gotOK && *gotAE != *oldAE {
					t.Errorf("%s: errors.As(*AlertError) = %+v, want %+v", f.how, *gotAE, *oldAE)
				}
				if got, want := causeOf(f.typed), causeOf(f.old); got != want {
					t.Errorf("%s: causeOf = %q, want %q", f.how, got, want)
				}
			}
			var ae *AlertError
			if ok := errors.As(tc.typed, &ae); ok != (tc.wantAlert != nil) || ok && *ae != *tc.wantAlert {
				t.Errorf("errors.As(*AlertError) = %v %+v, want %+v", ok, ae, tc.wantAlert)
			}
		})
	}
}

// TestReplayAlertStillHeals: a write the switch rejects as a replay fails
// with the typed alert error, and transactLocked still reads it as a
// replay rejection and skips the sequence counter one FloorLease forward,
// so the next write lands.
func TestReplayAlertStillHeals(t *testing.T) {
	c, s1, _ := twoSwitchFabric(t)
	if _, err := c.LocalKeyInit("s1"); err != nil {
		t.Fatal(err)
	}
	h, err := c.handle("s1")
	if err != nil {
		t.Fatal(err)
	}
	// A restored switch whose replay floor is ahead of the controller.
	before := h.seq.Peek()
	if err := s1.Host.SW.RegisterWrite(core.RegSeq, 0, uint64(before)+100); err != nil {
		t.Fatal(err)
	}
	_, err = c.WriteRegister("s1", "lat", 1, 5)
	var ae *AlertError
	if !errors.As(err, &ae) || ae.Reason != core.AlertReplay || !errors.Is(err, ErrTampered) {
		t.Fatalf("write under a raised floor: %v, want a replay alert wrapped in ErrTampered", err)
	}
	if _, ok := err.(*tamperedAlert); !ok {
		t.Fatalf("write under a raised floor failed with %T, want *tamperedAlert", err)
	}
	if got := causeOf(err); got != CauseReplayRejected {
		t.Fatalf("causeOf = %q, want %q", got, CauseReplayRejected)
	}
	if after := h.seq.Peek(); after-before < core.FloorLease {
		t.Fatalf("counter moved %d -> %d, want a skip of at least FloorLease (%d)", before, after, core.FloorLease)
	}
	if _, err := c.WriteRegister("s1", "lat", 1, 6); err != nil {
		t.Fatalf("write after the heal: %v", err)
	}
}

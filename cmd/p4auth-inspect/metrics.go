package main

import (
	"fmt"
	"io"
	"time"

	"p4auth/internal/controller"
	"p4auth/internal/netsim/chaos"
)

// runMetrics implements the `metrics` subcommand: stand up a seeded
// two-switch fabric, drive it through the representative control-plane
// traffic (key establishment, serial and windowed register writes, a key
// rollover, a tampered request, a replayed one), and print the resulting
// metrics registry and audit trail. The run is deterministic, so the
// output doubles as a quick reference for the instrument names the
// controller, agents, and data planes export.
func runMetrics(w io.Writer) error {
	fx, err := chaos.NewFixture("s1", "s2")
	if err != nil {
		return err
	}
	c, err := fx.NewController(0x0B5E)
	if err != nil {
		return err
	}
	if err := c.ConnectSwitches("s1", 1, "s2", 1, 5*time.Microsecond); err != nil {
		return err
	}
	if _, err := c.InitAllKeys(); err != nil {
		return err
	}
	for _, n := range fx.Names {
		for idx := uint32(0); idx < 3; idx++ {
			if _, err := c.WriteRegister(n, "lat", idx, uint64(100+idx)); err != nil {
				return err
			}
			if _, _, err := c.ReadRegister(n, "lat", idx); err != nil {
				return err
			}
		}
	}
	writes := make([]controller.RegWrite, 4)
	for i := range writes {
		writes[i] = controller.RegWrite{Register: "lat", Index: uint32(i), Value: uint64(200 + i)}
	}
	if _, err := c.WriteRegisterBatch("s1", 4, writes); err != nil {
		return err
	}
	if _, err := c.LocalKeyUpdate("s1"); err != nil {
		return err
	}

	// A man-in-the-middle flips a bit in one request: the switch alerts
	// BadDigest, the retransmission (clean — the tap disarms itself)
	// lands. One alert, zero dropped writes.
	tampered := false
	if err := c.SetControlTaps("s1", func(b []byte) []byte {
		if !tampered && len(b) > 0 {
			tampered = true
			mangled := append([]byte(nil), b...)
			mangled[len(mangled)-1] ^= 0x01
			return mangled
		}
		return b
	}, nil); err != nil {
		return err
	}
	if _, err := c.WriteRegister("s1", "lat", 5, 0xABCD); err != nil {
		return err
	}
	if err := c.SetControlTaps("s1", nil, nil); err != nil {
		return err
	}

	o := c.Observer()
	fmt.Fprintln(w, "== metrics ==")
	fmt.Fprint(w, o.Metrics.Snapshot().Dump())
	fmt.Fprintln(w, "\n== audit trail ==")
	fmt.Fprint(w, o.Audit.Dump())
	return nil
}

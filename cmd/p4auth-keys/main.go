// Command p4auth-keys inspects the key-management protocol on a small
// fabric: it builds m switches with n links, runs fleet-wide key
// initialization and a rollover, and prints per-operation timings and
// message counts (the data behind Fig. 20 and Table III).
//
// Usage:
//
//	p4auth-keys                 # 4 switches in a ring
//	p4auth-keys -m 25 -n 50     # the paper's per-controller domain
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"p4auth/internal/controller"
	"p4auth/internal/crypto"
	"p4auth/internal/deploy"
	"p4auth/internal/pisa"
)

func main() {
	m := flag.Int("m", 4, "switches")
	n := flag.Int("n", 4, "links")
	flag.Parse()
	if err := checkFlags(*m, *n); err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*m, *n); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// checkFlags rejects switch and link counts that describe no fabric.
func checkFlags(m, n int) error {
	if m < 1 {
		return fmt.Errorf("-m %d: a fabric needs at least one switch", m)
	}
	if n < 0 {
		return fmt.Errorf("-n %d: a link count cannot be negative", n)
	}
	return nil
}

func run(m, n int) error {
	c := controller.New(crypto.NewSeededRand(uint64(time.Now().UnixNano())))
	var names []string
	nextPort := make([]int, m)
	for i := 0; i < m; i++ {
		name := fmt.Sprintf("sw%02d", i)
		sw, err := deploy.Build(deploy.SwitchSpec{
			Name:  name,
			Ports: 8,
			Registers: []*pisa.RegisterDef{
				{Name: "state", Width: 64, Entries: 16},
			},
			RandSeed: uint64(0xA110 + i),
		})
		if err != nil {
			return err
		}
		if err := c.Register(name, sw.Host, sw.Cfg, 200*time.Microsecond); err != nil {
			return err
		}
		names = append(names, name)
		nextPort[i] = 1
	}
	added := 0
	for stride := 1; added < n && stride < m; stride++ {
		for i := 0; i < m && added < n; i++ {
			j := (i + stride) % m
			if nextPort[i] > 8 || nextPort[j] > 8 {
				continue
			}
			if err := c.ConnectSwitches(names[i], nextPort[i], names[j], nextPort[j], 20*time.Microsecond); err != nil {
				return err
			}
			nextPort[i]++
			nextPort[j]++
			added++
		}
	}
	if added != n {
		return fmt.Errorf("placed %d of %d links (8 ports per switch)", added, n)
	}

	fmt.Printf("fabric: %d switches, %d links\n\n", m, n)

	init, err := c.InitAllKeys()
	if err != nil {
		return err
	}
	fmt.Printf("key initialization: %4d messages  %6d bytes  serial %v  (formula 4m+5n = %d)\n",
		init.Messages, init.Bytes, init.RTT, 4*m+5*n)

	upd, err := c.UpdateAllKeys()
	if err != nil {
		return err
	}
	fmt.Printf("key rollover:       %4d messages  %6d bytes  serial %v  (formula 2m+3n = %d)\n",
		upd.Messages, upd.Bytes, upd.RTT, 2*m+3*n)

	// Spot check: one authenticated write per switch under the new keys.
	for _, name := range names {
		if _, err := c.WriteRegister(name, "state", 0, 0xA11F1E1D); err != nil {
			return fmt.Errorf("%s: post-rollover write failed: %w", name, err)
		}
	}
	fmt.Printf("\npost-rollover authenticated writes: %d/%d ok\n", len(names), len(names))
	return nil
}

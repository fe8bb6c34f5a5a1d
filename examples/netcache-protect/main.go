// netcache-protect runs the full-pipeline NetCache scenario: hot keys
// served from an in-switch cache, miss statistics counted in an
// in-pipeline count-min sketch, and the controller's promote/clear epochs
// driven over authenticated C-DP reads — the report path a compromised
// switch OS tampers with to evict the hot keys.
package main

import (
	"fmt"
	"log"

	"p4auth/internal/netcache"
)

const keySpace = 64

func zipf(s *netcache.System, n int) error {
	for i := 0; i < n; {
		for k := uint32(0); k < keySpace && i < n; k++ {
			reps := keySpace / (int(k) + 1)
			for r := 0; r < reps && i < n; r++ {
				if _, err := s.Query(k); err != nil {
					return err
				}
				i++
			}
		}
	}
	return nil
}

func run(secure, attacked bool) error {
	label := "no adversary"
	switch {
	case attacked && secure:
		label = "adversary + P4Auth"
	case attacked:
		label = "with adversary"
	}
	s, err := netcache.New(netcache.DefaultParams(secure))
	if err != nil {
		return err
	}
	candidates := make([]uint32, keySpace)
	for i := range candidates {
		candidates[i] = uint32(keySpace - 1 - i)
	}
	if err := zipf(s, 1500); err != nil {
		return err
	}
	if err := s.UpdateEpoch(candidates); err != nil {
		return err
	}
	if attacked {
		if err := s.InstallStatDeflater(3); err != nil {
			return err
		}
	}
	if err := zipf(s, 1500); err != nil {
		return err
	}
	if err := s.UpdateEpoch(candidates); err != nil {
		return err
	}
	if err := s.ResetCounters(); err != nil {
		return err
	}
	if err := zipf(s, 1500); err != nil {
		return err
	}
	rate, err := s.HitRate()
	if err != nil {
		return err
	}
	fmt.Printf("%-20s hit rate %5.1f%%  skipped epochs %d  alerts %d\n",
		label, 100*rate, s.SkippedEpochs, s.Ctrl.AlertCount())
	return nil
}

func main() {
	fmt.Println("NetCache on the P4Auth substrate: Zipf queries over 64 keys, 8 cache slots.")
	fmt.Println()
	for _, arm := range []struct{ secure, attacked bool }{
		{true, false}, {false, true}, {true, true},
	} {
		if err := run(arm.secure, arm.attacked); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println()
	fmt.Println("The adversary deflates the sketch counters the controller reads, so hot")
	fmt.Println("keys look cold and get evicted. P4Auth detects the first tampered read,")
	fmt.Println("the epoch is skipped, and the previous cache contents keep serving.")
}

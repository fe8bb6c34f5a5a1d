package core

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"testing"

	"p4auth/internal/crypto"
)

// TestExchangeGoldenVectors pins the EAK (Fig. 11) and ADHKD (Fig. 12)
// derivations — the exact keys a controller and switch agree on — to the
// hex vectors frozen in testdata/exchange_golden.txt. These cover the
// full Extract-and-Expand path under both digest kinds and the default
// deployment constants (K_seed, personalization, DH parameters), so any
// drift in those constants fails here too.
func TestExchangeGoldenVectors(t *testing.T) {
	f, err := os.Open("testdata/exchange_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	u64 := func(line, s string) uint64 {
		v, err := strconv.ParseUint(s, 16, 64)
		if err != nil {
			t.Fatalf("bad hex %q in %q: %v", s, line, err)
		}
		return v
	}
	lines := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		lines++
		fields := strings.Fields(line)
		kindInt, err := strconv.Atoi(fields[1])
		if err != nil {
			t.Fatalf("bad digest kind in %q: %v", line, err)
		}
		cfg := DefaultConfig(4, DigestKind(kindInt))
		kdf, err := cfg.KDF()
		if err != nil {
			t.Fatal(err)
		}
		switch fields[0] {
		case "eak":
			if len(fields) != 5 {
				t.Fatalf("bad eak line %q", line)
			}
			s1 := uint32(u64(line, fields[2]))
			s2 := uint32(u64(line, fields[3]))
			want := u64(line, fields[4])
			if got := kdf.Derive(cfg.Seed, SaltPair(s1, s2)); got != want {
				t.Errorf("EAK kind=%d K_auth = %016x, golden %016x", kindInt, got, want)
			}
		case "adhkd":
			if len(fields) != 9 {
				t.Fatalf("bad adhkd line %q", line)
			}
			r1, r2 := u64(line, fields[2]), u64(line, fields[3])
			s1 := uint32(u64(line, fields[4]))
			s2 := uint32(u64(line, fields[5]))
			wantPK1, wantPK2 := u64(line, fields[6]), u64(line, fields[7])
			want := u64(line, fields[8])
			dh := crypto.DefaultDHParams()
			pk1, pk2 := dh.PublicKey(r1), dh.PublicKey(r2)
			if pk1 != wantPK1 || pk2 != wantPK2 {
				t.Errorf("ADHKD kind=%d public keys (%016x, %016x), golden (%016x, %016x)",
					kindInt, pk1, pk2, wantPK1, wantPK2)
			}
			got := kdf.Derive(dh.SharedSecret(r1, pk2), SaltPair(s1, s2))
			if got != want {
				t.Errorf("ADHKD kind=%d K_ms = %016x, golden %016x", kindInt, got, want)
			}
			// Both sides must land on the same master secret.
			resp := kdf.Derive(dh.SharedSecret(r2, pk1), SaltPair(s1, s2))
			if resp != got {
				t.Errorf("ADHKD kind=%d responder derived %016x, initiator %016x", kindInt, resp, got)
			}
		default:
			t.Fatalf("unknown exchange vector kind %q", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines != 4 {
		t.Fatalf("parsed %d exchange vectors, want 4", lines)
	}
}

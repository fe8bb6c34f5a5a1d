package fleet

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"p4auth/internal/hula"
	"p4auth/internal/p4rt"
	"p4auth/internal/pisa"
)

// wiringDump renders the fabric wiring canonically: every switch with
// its ToR ID, then every link with both port numbers, in construction
// order. The goldens freeze the fat-tree conventions (naming, port plan,
// ToR numbering) so a refactor that rewires the fabric fails loudly.
func wiringDump(topo *Topology) string {
	var b strings.Builder
	fmt.Fprintf(&b, "k=%d switches=%d links=%d hosts=%d\n",
		topo.Cfg.K, len(topo.Switches), len(topo.Links), len(topo.Hosts))
	for _, e := range topo.Edges {
		fmt.Fprintf(&b, "edge %s tor=%d\n", e, topo.TorID[e])
	}
	for _, a := range topo.Aggs {
		fmt.Fprintf(&b, "agg %s\n", a)
	}
	for _, c := range topo.Cores {
		fmt.Fprintf(&b, "core %s\n", c)
	}
	for _, lk := range topo.Links {
		fmt.Fprintf(&b, "link %s:%d-%s:%d\n", lk.A, lk.APort, lk.B, lk.BPort)
	}
	return b.String()
}

// TestFatTreeWiringGolden pins the k=4 and k=8 wiring against
// checked-in goldens. Regenerate with GOLDEN_UPDATE=1 after an
// intentional topology change.
func TestFatTreeWiringGolden(t *testing.T) {
	cases := []struct {
		k    int
		path string
	}{
		{4, "testdata/wiring_k4.golden"},
		{8, "testdata/wiring_k8.golden"},
	}
	for _, tc := range cases {
		cfg := DefaultTopoConfig(tc.k)
		cfg.Secure = false // wiring is protection-independent; skip key setup
		topo, err := BuildFatTree(cfg)
		if err != nil {
			t.Fatalf("k=%d: build: %v", tc.k, err)
		}
		got := wiringDump(topo)
		if os.Getenv("GOLDEN_UPDATE") != "" {
			if err := os.WriteFile(tc.path, []byte(got), 0o644); err != nil {
				t.Fatalf("write golden: %v", err)
			}
			continue
		}
		want, err := os.ReadFile(tc.path)
		if err != nil {
			t.Fatalf("read golden (run with GOLDEN_UPDATE=1 to create): %v", err)
		}
		if got != string(want) {
			t.Errorf("k=%d wiring diverged from %s:\ngot:\n%s", tc.k, tc.path, got)
		}
	}
}

// TestFatTreeCounts checks the closed-form fat-tree sizes and the naming
// helpers against a secure build.
func TestFatTreeCounts(t *testing.T) {
	for _, k := range []int{4, 8} {
		topo, err := BuildFatTree(DefaultTopoConfig(k))
		if err != nil {
			t.Fatalf("k=%d: build: %v", k, err)
		}
		half := k / 2
		if got, want := len(topo.Edges), k*half; got != want {
			t.Errorf("k=%d: %d edges, want %d", k, got, want)
		}
		if got, want := len(topo.Aggs), k*half; got != want {
			t.Errorf("k=%d: %d aggs, want %d", k, got, want)
		}
		if got, want := len(topo.Cores), half*half; got != want {
			t.Errorf("k=%d: %d cores, want %d", k, got, want)
		}
		// Links: k pods × (half² edge-agg + half² agg-core).
		if got, want := len(topo.Links), 2*k*half*half; got != want {
			t.Errorf("k=%d: %d links, want %d", k, got, want)
		}
		if topo.Edges[0] != edgeName(0, 0) || topo.Aggs[0] != aggName(0, 0) ||
			topo.Cores[0] != coreName(0) {
			t.Errorf("k=%d: naming helpers disagree with construction order", k)
		}
		if topo.Hosts[edgeName(0, 0)] == nil {
			t.Errorf("k=%d: no host at %s", k, edgeName(0, 0))
		}
		if hostName(1, 0) != "h1_0" {
			t.Errorf("hostName(1,0) = %q", hostName(1, 0))
		}
		if got := topo.PodOf(aggName(k-1, 1)); got != k-1 {
			t.Errorf("PodOf(%s) = %d", aggName(k-1, 1), got)
		}
		if got := topo.PodOf(coreName(0)); got != -1 {
			t.Errorf("PodOf(core) = %d, want -1", got)
		}
	}
}

func TestFatTreeRejectsBadConfig(t *testing.T) {
	for _, k := range []int{0, 2, 3, 5} {
		if _, err := BuildFatTree(DefaultTopoConfig(k)); err == nil {
			t.Errorf("k=%d: build accepted bad arity", k)
		}
	}
	cfg := DefaultTopoConfig(4)
	cfg.LinkDelay = 0
	if _, err := BuildFatTree(cfg); err == nil {
		t.Error("build accepted zero link delay")
	}
}

// TestTopologyErrorPaths exercises the unknown-switch guards and the
// insecure crash/reboot path (cold boot: cache cleared, nothing
// authenticated to restore).
func TestTopologyErrorPaths(t *testing.T) {
	topo, err := BuildFatTree(DefaultTopoConfig(4))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if err := topo.InjectProbe("nosuch"); err == nil {
		t.Error("InjectProbe accepted an unknown switch")
	}
	if err := topo.InjectProbe("a0_0"); err == nil {
		t.Error("InjectProbe accepted a switch that is no ToR")
	}
	if err := topo.SendData("nosuch", 1, 1, 100); err == nil {
		t.Error("SendData accepted an unknown switch")
	}
	if err := topo.CrashSwitch("nosuch"); err == nil {
		t.Error("CrashSwitch accepted an unknown switch")
	}
	if err := topo.RebootSwitch("nosuch"); err == nil {
		t.Error("RebootSwitch accepted an unknown switch")
	}

	cfg := DefaultTopoConfig(4)
	cfg.Secure = false
	insecure, err := BuildFatTree(cfg)
	if err != nil {
		t.Fatalf("insecure build: %v", err)
	}
	if err := insecure.SaveDeviceStates(1); err != nil {
		t.Errorf("insecure SaveDeviceStates: %v", err)
	}
	if err := insecure.CrashSwitch("a0_0"); err != nil {
		t.Errorf("crash: %v", err)
	}
	if err := insecure.RebootSwitch("a0_0"); err != nil {
		t.Errorf("insecure reboot: %v", err)
	}
}

// TestFatTreeDeliversFleetWide converges probes, then sends five flows
// from e0_0 to every other ToR. All 35 packets must land on their hosts
// with zero P4Auth alerts — the secure fabric at rest forges nothing.
func TestFatTreeDeliversFleetWide(t *testing.T) {
	topo, err := BuildFatTree(DefaultTopoConfig(4))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	for round := 0; round < 3; round++ {
		at := time.Duration(round+1) * 100 * time.Microsecond
		for _, e := range topo.Edges {
			e := e
			topo.Net.Sim.At(at, func() { topo.InjectProbe(e) })
		}
	}
	topo.Net.Sim.At(2*time.Millisecond, func() {
		flow := uint32(1000)
		for _, e := range topo.Edges[1:] {
			for f := 0; f < 5; f++ {
				topo.SendData("e0_0", topo.TorID[e], flow, 200)
				flow++
			}
		}
	})
	topo.Net.Sim.RunUntil(8 * time.Millisecond)
	var total uint64
	for _, e := range topo.Edges[1:] {
		if topo.Hosts[e].Packets != 5 || topo.Hosts[e].Bytes == 0 {
			t.Errorf("host at %s got %d packets (%d bytes), want 5", e, topo.Hosts[e].Packets, topo.Hosts[e].Bytes)
		}
		total += topo.Hosts[e].Packets
	}
	if total != 35 {
		t.Fatalf("delivered %d packets, want 35", total)
	}
	if topo.TotalAlerts() != 0 {
		t.Fatalf("clean fabric raised %d alerts", topo.TotalAlerts())
	}
	shares, err := topo.UplinkShares("e0_0")
	if err != nil {
		t.Fatalf("uplink shares: %v", err)
	}
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("uplink shares %v do not sum to 1", shares)
	}
	if _, err := topo.UplinkShares("c0"); err == nil {
		t.Error("UplinkShares accepted a core switch")
	}
	// The origin probes are built once and only lent to the pipeline.
	for _, e := range topo.Edges {
		want, err := hula.ProbePacket(topo.TorID[e], true)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(topo.probes[e], want) {
			t.Errorf("%s: origin probe is %x after the run, want %x", e, topo.probes[e], want)
		}
	}
}

// TestFatTreeSharesExactCompilations: within one fabric the edges share
// one compilation and the aggs and cores another (their Params differ only
// in SwitchID), a second fabric of the same config reuses them, and each
// is deeply equal to a fresh compile of a fresh hula.BuildProgram, for
// every role at k=4 and k=8, secure and insecure.
func TestFatTreeSharesExactCompilations(t *testing.T) {
	for _, k := range []int{4, 8} {
		for _, secure := range []bool{true, false} {
			cfg := DefaultTopoConfig(k)
			cfg.Secure = secure
			first, err := BuildFatTree(cfg)
			if err != nil {
				t.Fatal(err)
			}
			roles := map[*pisa.Compiled]bool{}
			for _, sw := range first.Switches {
				roles[sw.Host.SW.Compiled()] = true
			}
			if len(roles) != 2 {
				t.Errorf("k=%d secure=%v: %d switches over %d compilations, want 2", k, secure, len(first.Switches), len(roles))
			}
			second, err := BuildFatTree(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for name, sw := range first.Switches {
				shared := sw.Host.SW.Compiled()
				if second.Switches[name].Host.SW.Compiled() != shared {
					t.Errorf("k=%d secure=%v %s: compiled again", k, secure, name)
				}
				prog, _, err := hula.BuildProgram(sw.Params)
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := pisa.Compile(prog, pisa.BMv2Profile())
				if err != nil {
					t.Fatal(err)
				}
				p4rt.InfoOf(fresh) // the shared one's hosts built its p4info
				if !reflect.DeepEqual(fresh, shared) {
					t.Errorf("k=%d secure=%v %s: shared compilation differs from a fresh one", k, secure, name)
				}
			}
		}
	}
}

// fatTreeRetainedBound bounds what one fresh secure k=4 fabric keeps alive
// once its two role programs are compiled: its 20 switches' register
// banks, tables, key stores and stacks, and the links between them. It
// measured 567.7 kB with a 64-bit word per register entry and 431.3 kB
// with entries packed into lanes of their declared width; the bound sits
// between, so the entries cannot widen again unnoticed.
const fatTreeRetainedBound = 480_000

// TestFatTreeRetainedBytes measures one fabric as the HeapAlloc delta
// across its build, each side after two collections.
func TestFatTreeRetainedBytes(t *testing.T) {
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	// The first fabric of the process compiles the role programs and
	// leaves them in pisa.CompileOnce's cache.
	if _, err := BuildFatTree(DefaultTopoConfig(4)); err != nil {
		t.Fatal(err)
	}
	before := heap()
	topo, err := BuildFatTree(DefaultTopoConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	retained := heap() - before
	runtime.KeepAlive(topo)
	t.Logf("one k=4 fabric retains %d bytes", retained)
	if retained > fatTreeRetainedBound {
		t.Errorf("one k=4 fabric retains %d bytes, bound %d", retained, fatTreeRetainedBound)
	}
}

package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"
	"time"

	"p4auth/internal/controller"
	"p4auth/internal/core"
	"p4auth/internal/crypto"
	"p4auth/internal/deploy"
	"p4auth/internal/obs"
	"p4auth/internal/pisa"
)

// Machine-readable benchmark export. CollectBenchJSON measures the
// authenticated hot path's micro-benchmarks (via testing.Benchmark, so
// the numbers are the same ns/op, B/op, allocs/op `go test -bench` would
// print) plus the serial-vs-pipelined Fig. 19 throughput sweep, and
// WriteBenchJSON/SaveBenchJSON serialize the result for checking into
// the repository (BENCH_<date>.json) and diffing across commits.

// MicroResult is one micro-benchmark's steady-state cost.
type MicroResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// TputRow is one row of the pipelined Fig. 19 sweep.
type TputRow struct {
	Window  int     `json:"window"`
	Tput    float64 `json:"requests_per_sec"`
	Speedup float64 `json:"speedup_vs_serial"`
}

// MetricsBlock is the observability snapshot captured from the
// AuthenticatedWrite fixture's controller after its benchmark loop:
// proof the metrics layer was live while the allocs/op number was
// measured, plus the instrument values themselves for diffing.
type MetricsBlock struct {
	obs.Snapshot
	AuditEvents int `json:"audit_events"`
}

// FleetBlock is the sharded-fleet artifact: aggregate authenticated
// write throughput across the fleet and the lease-fenced failover time
// of the active/standby pair (both in modeled/virtual time).
type FleetBlock struct {
	Switches      int     `json:"switches"`
	Window        int     `json:"window"`
	Writes        int     `json:"writes_total"`
	WritesPerSec  float64 `json:"writes_per_sec"`
	SerialPerSec  float64 `json:"single_switch_serial_per_sec"`
	FailoverMs    float64 `json:"failover_ms"`
	FailoverEpoch uint64  `json:"failover_epoch"`
}

// EnvBlock records the machine context the numbers were taken on, so
// bench artifacts stay comparable across hosts: the modeled times don't
// depend on the machine, but wall-clock micro-benchmarks do.
type EnvBlock struct {
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
}

// BenchJSON is the checked-in benchmark artifact.
type BenchJSON struct {
	Date      string         `json:"date"`
	Env       *EnvBlock      `json:"env,omitempty"`
	Micro     []MicroResult  `json:"micro"`
	Fig19Pipe []TputRow      `json:"fig19_pipelined"`
	Fleet     *FleetBlock    `json:"fleet,omitempty"`
	Matrix    *MatrixBlock   `json:"fleet_matrix,omitempty"`
	Group     []GroupRow     `json:"group_failover,omitempty"`
	Hierarchy []HierarchyRow `json:"hierarchy,omitempty"`
	Metrics   *MetricsBlock  `json:"metrics,omitempty"`
}

func micro(name string, fn func(b *testing.B)) MicroResult {
	r := testing.Benchmark(fn)
	return MicroResult{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

// CollectBenchJSON runs the micro-benchmarks and the pipelined Fig. 19
// sweep. The date is supplied by the caller (it names the artifact).
func CollectBenchJSON(date string) (*BenchJSON, error) {
	out := &BenchJSON{
		Date: date,
		Env: &EnvBlock{
			GoMaxProcs: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
			GoVersion:  runtime.Version(),
		},
	}

	// Wire-level primitives, measured exactly like core's alloc gates.
	d := crypto.SharedHalfSipHashDigester()
	key := uint64(0x0123456789abcdef)
	m := &core.Message{
		Header: core.Header{HdrType: core.HdrRegister, MsgType: core.MsgWriteReq, SeqNum: 1, KeyVersion: 1},
		Reg:    &core.RegPayload{RegID: 7, Index: 3, Value: 99},
	}
	if err := m.Sign(d, key); err != nil {
		return nil, err
	}
	wire := m.AppendEncode(nil)
	var buf core.MessageBuf

	out.Micro = append(out.Micro,
		micro("Message.Sign", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.SeqNum++
				if err := m.Sign(d, key); err != nil {
					b.Fatal(err)
				}
			}
		}),
		micro("Message.Verify", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !m.Verify(d, key) {
					b.Fatal("verify failed")
				}
			}
		}),
		micro("Message.AppendEncode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				wire = m.AppendEncode(wire[:0])
			}
		}),
		micro("MessageBuf.Decode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := buf.Decode(wire); err != nil {
					b.Fatal(err)
				}
			}
		}),
	)

	// End-to-end authenticated write (the root BenchmarkAuthenticatedWrite
	// fixture: one switch, established local key).
	sw, err := deploy.Build(deploy.SwitchSpec{
		Name:  "b1",
		Ports: 4,
		Registers: []*pisa.RegisterDef{
			{Name: "r", Width: 64, Entries: 64},
		},
	})
	if err != nil {
		return nil, err
	}
	c := controller.New(crypto.NewSeededRand(9))
	if err := c.Register("b1", sw.Host, sw.Cfg, 0); err != nil {
		return nil, err
	}
	if _, err := c.LocalKeyInit("b1"); err != nil {
		return nil, err
	}
	for i := 0; i < 64; i++ { // warm the handle scratch and response cache
		if _, err := c.WriteRegister("b1", "r", uint32(i%64), uint64(i)); err != nil {
			return nil, err
		}
	}
	out.Micro = append(out.Micro, micro("AuthenticatedWrite", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := c.WriteRegister("b1", "r", uint32(i%64), uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
	}))
	o := c.Observer()
	out.Metrics = &MetricsBlock{Snapshot: o.Metrics.Snapshot(), AuditEvents: o.Audit.Len()}

	// Pipelined Fig. 19 sweep (numeric, not the formatted report).
	opts := DefaultFig19PipelinedOpts()
	pc, err := pipelinedFixture()
	if err != nil {
		return nil, err
	}
	var serial float64
	for _, w := range opts.Windows {
		tput, err := pipelinedWriteTput(pc, opts.Requests, w)
		if err != nil {
			return nil, err
		}
		if w <= 1 {
			serial = tput
		}
		speedup := 0.0
		if serial > 0 {
			speedup = tput / serial
		}
		out.Fig19Pipe = append(out.Fig19Pipe, TputRow{Window: w, Tput: tput, Speedup: speedup})
	}

	// Fleet-scale sharded throughput + HA failover time.
	fr, err := RunFleet(DefaultFleetOpts())
	if err != nil {
		return nil, err
	}
	out.Fleet = &FleetBlock{
		Switches:      fr.Switches,
		Window:        fr.Window,
		Writes:        fr.Writes,
		WritesPerSec:  fr.Tput,
		SerialPerSec:  fr.Serial,
		FailoverMs:    float64(fr.Failover) / float64(time.Millisecond),
		FailoverEpoch: fr.FailoverEpoch,
	}

	// N-replica group failover under rolling kills (N=3 and N=5).
	if out.Group, err = groupBenchRows(); err != nil {
		return nil, err
	}
	return out, nil
}

// WriteBenchJSON renders the artifact as indented JSON.
func (bj *BenchJSON) WriteBenchJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(bj)
}

// SaveBenchJSON collects and writes BENCH_<date>.json-style output to a
// file path.
func SaveBenchJSON(path, date string) (*BenchJSON, error) {
	bj, err := CollectBenchJSON(date)
	if err != nil {
		return nil, err
	}
	return bj, writeBenchFile(bj, path)
}

// SaveMatrixJSON collects the fleet-matrix artifact alone and writes it
// as a BENCH_<date>-matrix.json-style file (the survival matrix plus the
// shard throughput sweep, without re-running the micro-benchmarks).
func SaveMatrixJSON(path, date string, o MatrixOpts) (*BenchJSON, error) {
	mb, err := RunMatrixBench(o)
	if err != nil {
		return nil, err
	}
	bj := &BenchJSON{
		Date: date,
		Env: &EnvBlock{
			GoMaxProcs: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
			GoVersion:  runtime.Version(),
		},
		Matrix: mb,
	}
	return bj, writeBenchFile(bj, path)
}

// SaveHierarchyJSON collects the hierarchical control-plane artifact
// alone and writes it as a BENCH_<date>-hierarchy.json-style file
// (cross-pod establishment latency + aggregate pod write throughput,
// without re-running the micro-benchmarks).
func SaveHierarchyJSON(path, date string) (*BenchJSON, error) {
	rows, err := hierarchyBenchRows()
	if err != nil {
		return nil, err
	}
	bj := &BenchJSON{
		Date: date,
		Env: &EnvBlock{
			GoMaxProcs: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
			GoVersion:  runtime.Version(),
		},
		Hierarchy: rows,
	}
	return bj, writeBenchFile(bj, path)
}

func writeBenchFile(bj *BenchJSON, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := bj.WriteBenchJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("bench: write %s: %w", path, err)
	}
	return f.Close()
}

// Package trace generates synthetic packet traces standing in for the
// CAIDA PCAP replays of §IX-A (the dataset is license-gated): flows arrive
// as a Poisson process, flow sizes are heavy-tailed (bounded Pareto), and
// packets within a flow are paced. Only the aggregate mix matters to the
// experiments — traffic-split figures depend on flow arrival structure,
// not payload content — so this preserves the relevant behaviour.
package trace

import (
	"math"
	"sort"

	"p4auth/internal/crypto"
)

// Packet is one generated packet.
type Packet struct {
	// AtNs is the send time in virtual nanoseconds.
	AtNs uint64
	// Flow identifies the flow (stable 5-tuple surrogate).
	Flow uint32
	// Size is the packet size in bytes.
	Size int
}

// Config parameterizes the generator.
type Config struct {
	// FlowsPerSecond is the Poisson flow arrival rate.
	FlowsPerSecond float64
	// MeanFlowPackets is the mean flow length; sizes follow a bounded
	// Pareto with shape Alpha.
	MeanFlowPackets int
	Alpha           float64
	// MaxFlowPackets truncates the tail.
	MaxFlowPackets int
	// PacketBytes is the packet size.
	PacketBytes int
	// PacketGapNs is the intra-flow pacing gap.
	PacketGapNs uint64
	// DurationNs is the trace length.
	DurationNs uint64
	// Seed drives the deterministic PRNG.
	Seed uint64
	// FlowBase offsets every generated flow identifier, letting forked
	// per-pod streams occupy disjoint flow-ID spaces. Zero (the default)
	// keeps the historical numbering, so existing seeds generate
	// byte-identical traces.
	FlowBase uint32
}

// DefaultConfig produces a modest edge-link mix.
func DefaultConfig(durationNs uint64) Config {
	return Config{
		FlowsPerSecond:  2000,
		MeanFlowPackets: 12,
		Alpha:           1.3,
		MaxFlowPackets:  1000,
		PacketBytes:     1000,
		PacketGapNs:     20_000,
		DurationNs:      durationNs,
		Seed:            0x7acef10,
	}
}

// Generate produces the trace, ordered by send time.
func Generate(cfg Config) []Packet {
	rng := crypto.NewSeededRand(cfg.Seed)
	uniform := func() float64 {
		return float64(rng.Uint64()>>11) / float64(1<<53)
	}
	expo := func(rate float64) float64 {
		u := uniform()
		if u <= 0 {
			u = 1e-12
		}
		return -math.Log(u) / rate
	}
	paretoLen := func() int {
		// Bounded Pareto with mean ~= MeanFlowPackets: x_m chosen from the
		// shape so that E[X] = x_m * alpha/(alpha-1) hits the target mean.
		alpha := cfg.Alpha
		if alpha <= 1.01 {
			alpha = 1.01
		}
		xm := float64(cfg.MeanFlowPackets) * (alpha - 1) / alpha
		if xm < 1 {
			xm = 1
		}
		u := uniform()
		if u <= 0 {
			u = 1e-12
		}
		n := int(xm / math.Pow(u, 1/alpha))
		if n < 1 {
			n = 1
		}
		if cfg.MaxFlowPackets > 0 && n > cfg.MaxFlowPackets {
			n = cfg.MaxFlowPackets
		}
		return n
	}

	var out []Packet
	flow := cfg.FlowBase + 1
	tNs := 0.0
	rateNs := cfg.FlowsPerSecond / 1e9
	for {
		tNs += expo(rateNs)
		if uint64(tNs) >= cfg.DurationNs {
			break
		}
		n := paretoLen()
		for i := 0; i < n; i++ {
			at := uint64(tNs) + uint64(i)*cfg.PacketGapNs
			if at >= cfg.DurationNs {
				break
			}
			out = append(out, Packet{AtNs: at, Flow: flow, Size: cfg.PacketBytes})
		}
		flow++
	}
	// Flows interleave; per-flow packets are ordered but the global
	// sequence needs a sort. Stable keeps per-flow order on ties.
	sort.SliceStable(out, func(i, j int) bool { return out[i].AtNs < out[j].AtNs })
	return out
}

// Stream is a fork-able seeded flow generator: Fork(i) derives an
// independent deterministic substream whose contents depend only on
// (seed, i) — never on fork order or sibling forks. The fleet harness
// forks one stream per fat-tree pod.
type Stream struct {
	cfg Config
}

// NewStream wraps a generator configuration as a fork-able stream.
func NewStream(cfg Config) *Stream { return &Stream{cfg: cfg} }

// Config returns the stream's effective configuration.
func (s *Stream) Config() Config { return s.cfg }

// Fork derives substream i: the seed is mixed with the fork index
// through a splitmix64 finalizer, and the flow-ID space is offset so
// sibling forks never collide. The parent stream is unaffected.
func (s *Stream) Fork(i uint64) *Stream {
	cfg := s.cfg
	z := cfg.Seed + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	cfg.Seed = z ^ (z >> 31)
	// 2^22 flows of headroom per fork: far above any per-pod flow count
	// the generator can produce within a simulated run.
	cfg.FlowBase = s.cfg.FlowBase + uint32(i+1)<<22
	return &Stream{cfg: cfg}
}

// Generate produces this stream's trace, ordered by send time.
func (s *Stream) Generate() []Packet { return Generate(s.cfg) }

// Stats summarizes a trace.
type Stats struct {
	Packets   int
	Flows     int
	Bytes     uint64
	MaxFlowPk int
}

// Summarize computes trace statistics.
func Summarize(pkts []Packet) Stats {
	flows := make(map[uint32]int)
	var s Stats
	for _, p := range pkts {
		s.Packets++
		s.Bytes += uint64(p.Size)
		flows[p.Flow]++
	}
	s.Flows = len(flows)
	for _, n := range flows {
		if n > s.MaxFlowPk {
			s.MaxFlowPk = n
		}
	}
	return s
}

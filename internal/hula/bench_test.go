package hula

import (
	"testing"

	"p4auth/internal/core"
	"p4auth/internal/pisa"
	"p4auth/internal/switchos"
)

// BenchmarkSwitchProbeBatch32 is the benchmark's dpdp_probes workload as a
// go test benchmark, so that its CPU profile is one -cpuprofile away: one
// secure switch, 8 ports keyed through the trusted driver path, each port
// flooding to one neighbour, signed probes with per-port rising sequence
// numbers through NetworkPacketBatchInto in batches of 32. One op is one
// probe verified, re-signed and emitted; signing happens off the clock.
func BenchmarkSwitchProbeBatch32(b *testing.B) {
	const ports, batch, chunk = 8, 32, 2048
	s, err := NewSwitch("probe", DefaultParams(1, ports), 1)
	if err != nil {
		b.Fatal(err)
	}
	dig, err := s.Cfg.Digester()
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]uint64, ports+1)
	for port := 1; port <= ports; port++ {
		keys[port] = 0x9e3779b97f4a7c15 * uint64(port)
		if err := s.Host.SW.RegisterWrite(core.RegKeysV0, port, keys[port]); err != nil {
			b.Fatal(err)
		}
		if err := s.SetProbeFlood(port, []int{port%ports + 1}); err != nil {
			b.Fatal(err)
		}
	}
	msg := core.Message{
		Header: core.Header{HdrType: core.HdrFeedback, MsgType: core.MsgProbe},
		Aux:    make([]byte, 6),
	}
	pkts := make([]pisa.Packet, chunk)
	seqs := make([]uint32, ports+1)
	sign := func() {
		for i := range pkts {
			port := i%ports + 1
			seqs[port]++
			msg.SeqNum = seqs[port]
			msg.Aux[1], msg.Aux[5] = byte(i%ports), byte(i)
			if err := msg.Sign(dig, keys[port]); err != nil {
				b.Fatal(err)
			}
			pkts[i] = pisa.Packet{Data: msg.AppendEncode(pkts[i].Data[:0]), Port: port}
		}
	}
	var io switchos.IOResult
	run := func(n int) {
		for off := 0; off < n; off += batch {
			end := min(off+batch, n)
			if err := s.Host.NetworkPacketBatchInto(pkts[off:end], &io); err != nil {
				b.Fatal(err)
			}
			if len(io.NetOut) != end-off || len(io.PacketIns) != 0 {
				b.Fatalf("%d probes in, %d replicas out, %d PacketIns", end-off, len(io.NetOut), len(io.PacketIns))
			}
		}
	}
	// One chunk off the clock sizes the result's buffers, so that a short
	// run reads the steady state's 0 allocs/op too.
	sign()
	run(chunk)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += chunk {
		b.StopTimer()
		sign()
		b.StartTimer()
		run(min(chunk, b.N-done))
	}
}

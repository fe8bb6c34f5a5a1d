package switchos

import (
	"bytes"
	"testing"
	"time"

	"p4auth/internal/pisa"
)

// netBatch builds a mixed batch: kind=1 goes to CPU (PacketIn), kind=0
// forwards to port 2 (NetOut), spread across ingress ports.
func netBatch(n, ports int) []pisa.Packet {
	pkts := make([]pisa.Packet, n)
	for i := range pkts {
		pkts[i] = pisa.Packet{Data: []byte{byte(i % 2)}, Port: i % ports}
	}
	return pkts
}

// TestNetworkPacketBatchMatchesPerPacket checks the batch ingress path
// against a per-packet NetworkPacket loop: identical
// NetOut and PacketIn contents, and a batch cost equal to the per-packet
// sum minus the amortized agent dispatches (one PacketIOBase for the whole
// batch instead of one per PacketIn-producing packet).
func TestNetworkPacketBatchMatchesPerPacket(t *testing.T) {
	hBatch := newHost(t)
	hLoop := newHost(t)
	pkts := netBatch(16, 4)

	var bres IOResult
	if err := hBatch.NetworkPacketBatchInto(pkts, &bres); err != nil {
		t.Fatal(err)
	}
	var wantNetOut []pisa.Emission
	var wantPins [][]byte
	var wantCost time.Duration
	pinPackets := 0
	for _, pkt := range pkts {
		res, err := hLoop.NetworkPacket(pkt.Port, pkt.Data)
		if err != nil {
			t.Fatal(err)
		}
		wantCost += res.Cost
		if len(res.PacketIns) > 0 {
			pinPackets++
		}
		for _, e := range res.NetOut {
			wantNetOut = append(wantNetOut, pisa.Emission{Port: e.Port, Data: append([]byte(nil), e.Data...)})
		}
		for _, p := range res.PacketIns {
			wantPins = append(wantPins, append([]byte(nil), p...))
		}
	}
	if len(bres.NetOut) != len(wantNetOut) {
		t.Fatalf("NetOut count %d, want %d", len(bres.NetOut), len(wantNetOut))
	}
	for i := range wantNetOut {
		if bres.NetOut[i].Port != wantNetOut[i].Port || !bytes.Equal(bres.NetOut[i].Data, wantNetOut[i].Data) {
			t.Fatalf("NetOut[%d] diverges from per-packet loop", i)
		}
	}
	if len(bres.PacketIns) != len(wantPins) {
		t.Fatalf("PacketIns count %d, want %d", len(bres.PacketIns), len(wantPins))
	}
	for i := range wantPins {
		if !bytes.Equal(bres.PacketIns[i], wantPins[i]) {
			t.Fatalf("PacketIns[%d] diverges from per-packet loop", i)
		}
	}
	if pinPackets > 0 {
		wantCost -= time.Duration(pinPackets-1) * DefaultCosts().PacketIOBase
	}
	if bres.Cost != wantCost {
		t.Fatalf("batch cost %v, want %v (per-packet sum with one amortized dispatch)", bres.Cost, wantCost)
	}
}

// TestNetworkPacketBatchBufferStability pins the zero-copy contract: every
// PacketIn of a batch keeps its own bytes after the whole batch completes
// (distinct packets do not share a recycled arena), and a reused IOResult
// stays correct across calls (the zero-copy buffers are rewritten, not
// leaked).
func TestNetworkPacketBatchBufferStability(t *testing.T) {
	h := newHost(t)
	// All to-CPU packets.
	pkts := make([]pisa.Packet, 12)
	for i := range pkts {
		pkts[i] = pisa.Packet{Data: []byte{1}, Port: i % 4}
	}
	var io IOResult
	for round := 0; round < 3; round++ {
		if err := h.NetworkPacketBatchInto(pkts, &io); err != nil {
			t.Fatal(err)
		}
		if len(io.PacketIns) != len(pkts) || len(io.NetOut) != 0 {
			t.Fatalf("round %d: %d NetOut / %d PacketIns, want 0 / %d",
				round, len(io.NetOut), len(io.PacketIns), len(pkts))
		}
		for i, p := range io.PacketIns {
			if len(p) == 0 || p[0] != 1 {
				t.Fatalf("round %d: PacketIns[%d] = %v corrupted after batch completion", round, i, p)
			}
		}
	}
}

package pisa_test

import (
	"bytes"
	"testing"

	"p4auth/internal/pisa"
	"p4auth/internal/switchos"
)

// TestCorpusNetworkPacketInto feeds the corpus stream to two identically
// booted copies of every subject: one answers through the by-value
// switchos.Host.NetworkPacket, the other through NetworkPacketInto with
// one IOResult reused for the whole stream. Error, NetOut, PacketIns and
// Cost must agree packet by packet, so nothing of an earlier packet is
// left in the reused result, and every 16th packet meets a crashed host,
// where both must stay silent.
func TestCorpusNetworkPacketInto(t *testing.T) {
	fresh, reused := corpusSubjects(t), corpusSubjects(t)
	for k, a := range fresh {
		b := reused[k]
		r := a.stream()
		var valid []pisa.Packet
		var io switchos.IOResult
		emitted := 0
		for i := 0; i < corpusPackets; i++ {
			// The twins hold the same state, so a packet signed with a's
			// registers verifies on b.
			pkt, kind := a.draw(t, &r, &valid)
			down := i%16 == 15
			for _, s := range []*corpusSubject{a, b} {
				s.host.SetDown(down)
				s.host.SW.SetNow(uint64(i+1) * 1000)
			}
			want, wantErr := a.host.NetworkPacket(pkt.Port, pkt.Data)
			gotErr := b.host.NetworkPacketInto(pkt.Port, pkt.Data, &io)
			if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
				t.Fatalf("%s packet %d (kind %d): NetworkPacket err %v, NetworkPacketInto err %v", a.name, i, kind, wantErr, gotErr)
			}
			if wantErr != nil {
				continue
			}
			if down && len(io.NetOut)+len(io.PacketIns) != 0 {
				t.Fatalf("%s packet %d: a crashed host answered %d + %d packets", a.name, i, len(io.NetOut), len(io.PacketIns))
			}
			if io.Cost != want.Cost || len(io.NetOut) != len(want.NetOut) || len(io.PacketIns) != len(want.PacketIns) {
				t.Fatalf("%s packet %d (kind %d): cost %v, %d NetOut, %d PacketIns; want %v, %d, %d", a.name, i, kind,
					io.Cost, len(io.NetOut), len(io.PacketIns), want.Cost, len(want.NetOut), len(want.PacketIns))
			}
			for j, e := range want.NetOut {
				if io.NetOut[j].Port != e.Port || !bytes.Equal(io.NetOut[j].Data, e.Data) {
					t.Fatalf("%s packet %d: NetOut[%d] = %d:%x, want %d:%x", a.name, i, j, io.NetOut[j].Port, io.NetOut[j].Data, e.Port, e.Data)
				}
			}
			for j, p := range want.PacketIns {
				if !bytes.Equal(io.PacketIns[j], p) {
					t.Fatalf("%s packet %d: PacketIns[%d] = %x, want %x", a.name, i, j, io.PacketIns[j], p)
				}
			}
			emitted += len(want.NetOut) + len(want.PacketIns)
		}
		if emitted == 0 {
			t.Errorf("%s: the stream drew no emission; the comparison checked nothing", a.name)
		}
	}
}

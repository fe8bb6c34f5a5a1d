package deploy

import (
	"p4auth/internal/netsim"
	"p4auth/internal/switchos"
)

// SwitchNode adapts a switchos.Host to a netsim node: arriving packets run
// through the pipeline (stamped with the virtual clock), network emissions
// are sent onward after the modeled processing delay, and PacketIns are
// surfaced to the OnPacketIn callback (the switch's control channel).
type SwitchNode struct {
	Host *switchos.Host
	// OnPacketIn receives control-channel messages (alerts, responses).
	// The bytes are lent until the callback returns (copy to keep), and
	// the callback must not hand this node another packet.
	OnPacketIn func(data []byte)
	// Errors holds the first 64 pipeline errors (malformed
	// packets etc.); ErrorCount counts every one.
	Errors     []error
	ErrorCount int

	// io is reused for every packet: netsim.Send copies each emission
	// before HandlePacket returns, so nothing outlives the call.
	io switchos.IOResult
}

// maxNodeErrors bounds SwitchNode.Errors, so that one persistently
// malformed flow cannot grow it for the whole run.
const maxNodeErrors = 64

func (sn *SwitchNode) fail(err error) {
	sn.ErrorCount++
	if len(sn.Errors) < maxNodeErrors {
		sn.Errors = append(sn.Errors, err)
	}
}

// HandlePacket implements netsim.Handler.
func (sn *SwitchNode) HandlePacket(net *netsim.Network, node *netsim.Node, port int, data []byte) {
	sn.Host.SW.SetNow(uint64(net.Sim.Now()))
	res := &sn.io
	if err := sn.Host.NetworkPacketInto(port, data, res); err != nil {
		sn.fail(err)
		return
	}
	for _, em := range res.NetOut {
		if err := net.Send(node, em.Port, em.Data, res.Cost); err != nil {
			sn.fail(err)
		}
	}
	if sn.OnPacketIn != nil {
		for _, pin := range res.PacketIns {
			sn.OnPacketIn(pin)
		}
	}
}

// Inject runs a locally originated packet (e.g. a generator-port probe)
// through the pipeline and sends its emissions, exactly like an arriving
// packet but entering on the given port.
func (sn *SwitchNode) Inject(net *netsim.Network, node *netsim.Node, port int, data []byte) {
	sn.HandlePacket(net, node, port, data)
}

// Sink is a traffic endpoint that counts what it receives.
type Sink struct {
	Packets uint64
	Bytes   uint64
}

// Handler returns the netsim handler for the sink.
func (s *Sink) Handler() netsim.Handler {
	return netsim.HandlerFunc(func(_ *netsim.Network, _ *netsim.Node, _ int, data []byte) {
		s.Packets++
		s.Bytes += uint64(len(data))
	})
}

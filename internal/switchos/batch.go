package switchos

import (
	"fmt"

	"p4auth/internal/pisa"
)

// Batch network ingress: one agent transaction carries a whole window of
// packets through the pipeline via pisa.ProcessBatch, and — because each
// packet of a batch owns its Result buffers for the batch's lifetime —
// emission bytes flow upward into NetOut/PacketIns without the per-packet
// arena copy a PacketOut window pays (see IOResult).

// NetworkPacketBatchInto injects a batch of packets arriving on network
// ports directly into the pipeline (no software stack on the way in).
// Arrival order is preserved; the pipeline cost is the sum of the
// per-packet costs. PacketIns that surface share one amortized agent
// dispatch, like PacketOutBatchInto. The result is caller-owned and
// reusable: NetOut and PacketIns reference the pipeline's batch buffers
// directly (no copy); they are valid until the next *Into call on the
// same result.
func (h *Host) NetworkPacketBatchInto(pkts []pisa.Packet, io *IOResult) error {
	io.reset()
	if h.down.Load() || len(pkts) == 0 {
		return nil // crashed: the wire ends in a dead port
	}
	if err := h.SW.ProcessBatch(pkts, &io.bres); err != nil {
		return fmt.Errorf("switchos: %s: pipeline: %w", h.Name, err)
	}
	io.Cost += io.bres.Cost
	for i := range io.bres.Results {
		h.emitResult(&io.bres.Results[i], io, 0, false)
	}
	if len(io.PacketIns) > 0 {
		io.Cost += h.Costs.PacketIOBase
	}
	return nil
}

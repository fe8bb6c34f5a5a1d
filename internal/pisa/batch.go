package pisa

import "time"

// BatchResult holds the outcome of one ProcessBatch call.
//
// Unlike a reused single Result — whose emission buffers recycle on every
// ProcessInto — each packet of a batch writes into its own Result, so all
// emission buffers stay valid until the next ProcessBatch (or reuse of
// the individual Results). That stability is what lets the switchos batch
// path hand emission bytes upward without an intermediate copy.
type BatchResult struct {
	// Results holds one Result per input packet, in input order. A packet
	// that failed (see the error return of ProcessBatch) leaves its
	// Result undefined.
	Results []Result
	// Cost is the modeled data-plane latency of the whole batch: the sum
	// of the per-packet costs.
	Cost time.Duration
}

// prep sizes Results for n packets, retaining each Result's recycled
// buffers across calls.
func (br *BatchResult) prep(n int) {
	for cap(br.Results) < n {
		br.Results = append(br.Results[:cap(br.Results)], Result{})
	}
	br.Results = br.Results[:n]
}

// ProcessBatch runs a batch of packets through the pipeline in input
// order, one Result per packet (see BatchResult's buffer-stability
// contract) — a caller's own ProcessInto loop, including the random()
// draw order, except that the read side of the table lock and one
// execution state are taken once for the batch: a table or multicast
// change waits for the batch, not for a packet. A per-packet failure does
// not stop the rest of the batch: the first error (lowest input index) is
// returned, the failed packet's Result is undefined, and every other
// packet completes normally.
func (s *Switch) ProcessBatch(pkts []Packet, br *BatchResult) error {
	br.prep(len(pkts))
	br.Cost = 0
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	st := s.execPool.Get().(*execState)
	defer s.execPool.Put(st)
	var firstErr error
	for i := range pkts {
		if err := s.process(st, pkts[i], &br.Results[i]); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		br.Cost += br.Results[i].Cost
	}
	return firstErr
}

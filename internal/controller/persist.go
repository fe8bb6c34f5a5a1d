package controller

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"p4auth/internal/core"
	"p4auth/internal/obs"
	"p4auth/internal/statestore"
	"p4auth/internal/switchos"
)

// Crash safety: durable snapshots, a register write-ahead journal, and
// the warm-restart recovery protocol.
//
// With EnableCrashSafety, the controller persists per-switch state into a
// statestore.Store:
//
//   ctl/<switch>           — key snapshot (KeyStore image + next seqNum),
//                            rewritten after every successful KMP flow
//   wal/<switch>/<id hex>  — one journal record per in-flight register
//                            write call (a serial write or a batch),
//                            recorded before the wire send
//
// After a crash (modeled by Kill), a fresh controller process attaches
// the same store and runs RecoverAll: restore each switch's snapshot,
// resume sequence numbering at the snapshot's high-water mark, prove
// liveness with an authenticated probe (healing restored replay floors by
// skipping the counter on verified replay alerts), repair ±1 key-version
// drift, settle surviving journal intents by authenticated read-back, and
// only when none of that works fall back to Reinitialize — the EAK
// re-seed path, which requires out-of-band access to the switch.

// errNoStore is returned by recovery APIs before EnableCrashSafety.
var errNoStore = errors.New("controller: crash safety not enabled (no state store)")

// livenessRounds bounds the replay-floor healing loop: each failed round
// skips the sequence counter one FloorLease forward, and under the
// snapshot-once-per-FloorLease persistence contract the floors of both
// ends can be at most two leases apart.
const livenessRounds = 8

func ctlKey(sw string) string { return "ctl/" + sw }

// walKey is "wal/<sw>/<id as 16 hex digits>", built in one allocation.
func walKey(sw string, id uint64) string {
	const hex = "0123456789abcdef"
	var b strings.Builder
	b.Grow(len("wal/") + len(sw) + 1 + 16)
	b.WriteString("wal/")
	b.WriteString(sw)
	b.WriteByte('/')
	for shift := 60; shift >= 0; shift -= 4 {
		b.WriteByte(hex[id>>shift&0xf])
	}
	return b.String()
}

// walIntent names one journal record in flight: its id (0 when nothing
// was journaled) and its store key, built once for the record's whole life.
type walIntent struct {
	id  uint64
	key string
}

// EnableCrashSafety attaches a durable store. Journal numbering continues
// above any IDs already present, so a recovered controller never reuses a
// crashed predecessor's entry keys.
func (c *Controller) EnableCrashSafety(st statestore.Store) error {
	if st == nil {
		return errNoStore
	}
	keys, err := st.Keys("wal/")
	if err != nil {
		return err
	}
	var maxID uint64
	for _, k := range keys {
		if i := strings.LastIndexByte(k, '/'); i >= 0 {
			if id, perr := strconv.ParseUint(k[i+1:], 16, 64); perr == nil && id > maxID {
				maxID = id
			}
		}
	}
	c.reconfigure(func(cfg *ctlConfig) {
		cfg.store = st
		c.walID.Store(maxID)
	})
	return nil
}

func (c *Controller) stateStore() statestore.Store { return c.cfg.Load().store }

// Kill marks the controller process dead: every subsequent exchange fails
// with ErrKilled and nothing further is persisted (a crashed process
// cannot write its disk). The chaos harness flips this mid-operation and
// then builds a fresh controller over the same store, exactly as a
// process restart would.
func (c *Controller) Kill() { c.wire.kill() }

// Killed reports whether Kill has been called.
func (c *Controller) Killed() bool { return c.wire.killed() }

// countSeedUse records one K_seed KDF derivation (an EAK exchange). The
// warm-restart acceptance bar is zero new uses: recovery from a valid
// snapshot must never fall back to the pre-shared seed.
func (c *Controller) countSeedUse(sw string) {
	c.mu.Lock()
	c.seedUses[sw]++
	c.mu.Unlock()
	c.obsv().seedUses.Inc()
}

// SeedUses reports how many times K_seed entered a key derivation for the
// switch over this controller's lifetime.
func (c *Controller) SeedUses(sw string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seedUses[sw]
}

// SaveSnapshot persists the controller's key state toward one switch:
// the KeyStore image (including any prepared-but-uncommitted key) and the
// next unissued sequence number. Requires EnableCrashSafety.
func (c *Controller) SaveSnapshot(sw string) error {
	h, err := c.handle(sw)
	if err != nil {
		return err
	}
	st := c.stateStore()
	if st == nil {
		return errNoStore
	}
	if c.Killed() {
		return ErrKilled
	}
	c.mu.Lock()
	c.persistN++
	n := c.persistN
	c.mu.Unlock()
	snap := h.keys.Snapshot()
	snap.SeqNext = h.seq.Peek()
	snap.TakenNs = n // monotonic persist counter; informational
	return st.Save(ctlKey(sw), snap.Encode())
}

// autoPersist is the post-KMP hook: a no-op without a store (or after
// Kill — a dead process persists nothing), a snapshot rewrite otherwise.
// Key material MUST be persisted eagerly: unlike sequence numbers, which
// the FloorLease recovers, a lost key rollover strands the controller
// behind the switch.
func (c *Controller) autoPersist(sw string) error {
	if c.stateStore() == nil || c.Killed() {
		return nil
	}
	return c.SaveSnapshot(sw)
}

// walBegin journals writes as one intent record before the first wire
// send: one durable Save covers the writes of the call, a serial write's
// one or a batch's. Returns a zero intent (and writes nothing) when
// journaling is off or the process is dead. Requires h.opMu: the record,
// h.wal, and its encoding are handle scratch.
func (c *Controller) walBegin(h *swHandle, writes []RegWrite) (walIntent, error) {
	st := c.stateStore()
	if st == nil || c.Killed() {
		return walIntent{}, nil
	}
	id := c.walID.Add(1)
	j := walIntent{id: id, key: walKey(h.name, id)}
	h.wal.ID, h.wal.Switch = id, h.name
	h.wal.Writes = h.wal.Writes[:0]
	for _, w := range writes {
		h.wal.Writes = append(h.wal.Writes, core.BatchWrite{Register: w.Register, Index: w.Index, Value: w.Value})
	}
	h.walBuf = h.wal.AppendEncode(h.walBuf[:0])
	return j, st.Save(j.key, h.walBuf)
}

// walSettle resolves the record begun by walBegin, errs[i] being write
// i's outcome: a fully-applied record is deleted; otherwise it is
// rewritten with each write's final state, applied or failed, for the
// operator. No WriteIntent survives a live settle, so recovery's
// read-back only runs for genuine crashes — and a dead process settles
// nothing, which is the whole point of the journal. Requires h.opMu, as
// walBegin.
func (c *Controller) walSettle(h *swHandle, j walIntent, errs ...error) {
	if j.id == 0 {
		return
	}
	st := c.stateStore()
	if st == nil || c.Killed() {
		return
	}
	failed := 0
	for i, err := range errs {
		h.wal.Writes[i].State = core.WriteApplied
		if err != nil {
			h.wal.Writes[i].State = core.WriteFailed
			failed++
		}
	}
	ko := c.obsv()
	ko.walApplied.Add(uint64(len(errs) - failed))
	if failed == 0 {
		_ = st.Delete(j.key)
		ko.audit(obs.EvWALSettle, h.name, CauseWALApplied, 0, j.id)
		return
	}
	ko.walFailed.Add(uint64(failed))
	h.walBuf = h.wal.AppendEncode(h.walBuf[:0])
	_ = st.Save(j.key, h.walBuf)
	ko.audit(obs.EvWALSettle, h.name, CauseWALFailed, 0, j.id)
}

// JournalEntries returns the journal entries persisted for a switch, in
// ID order, each record expanded into its per-write entries. Undecodable
// (torn) records are skipped.
func (c *Controller) JournalEntries(sw string) ([]core.JournalEntry, error) {
	st := c.stateStore()
	if st == nil {
		return nil, errNoStore
	}
	keys, err := st.Keys("wal/" + sw + "/")
	if err != nil {
		return nil, err
	}
	var out []core.JournalEntry
	for _, k := range keys {
		b, lerr := st.Load(k)
		if lerr != nil {
			continue
		}
		if e, derr := core.DecodeJournalBatch(b); derr == nil {
			out = append(out, e.Entries()...)
		}
	}
	return out, nil
}

// liveness proves the switch is up and the shared local key works: an
// authenticated read of pa_ver[0]. Verified replay alerts are healed in
// place — each one skips the sequence counter a FloorLease forward (the
// switch answered under the shared key, so it is alive and the key is
// good; only the counter lags its restored floor) — and the probe is
// retried with a fresh sequence number. Any other failure is returned.
func (c *Controller) liveness(h *swHandle) error {
	var err error
	for round := 0; round < livenessRounds; round++ {
		_, _, err = c.regRead(h, core.RegVer, uint32(core.KeyIndexLocal))
		if err == nil {
			return nil
		}
		var ae *AlertError
		if errors.As(err, &ae) && ae.Reason == core.AlertReplay {
			continue // transact already skipped the counter; probe again
		}
		return err
	}
	return fmt.Errorf("controller: %s: liveness probe still replay-rejected after %d floor skips: %w",
		h.name, livenessRounds, err)
}

// revive brings a snapshot-restored handle back into authenticated sync
// with its switch:
//
//   - liveness OK   → repair the switch-one-ahead case (it installed a
//     key whose confirmation the crash ate) via kmpRun.resync's
//     authenticated version rollback;
//   - ErrTampered   → key disagreement. Either the switch alerted
//     BadDigest on our probe, or it answered under a key we cannot verify
//     — both are the signature of the switch being one rollover BEHIND us
//     (restored from a snapshot older than the last rollover). Drop our
//     newest key with KeyStore.Rollback and probe again; rolling back to
//     a previously-shared key is safe against forgery because the retried
//     probe still demands a response authenticated under that key.
//   - anything else → unrecoverable here; the caller falls back to
//     Reinitialize.
func (c *Controller) revive(h *swHandle) error {
	for tries := 0; ; tries++ {
		err := c.liveness(h)
		if err == nil {
			return (&kmpRun{c: c, a: kmpEnd{h: h}}).resync()
		}
		if tries == 0 && errors.Is(err, ErrTampered) {
			if rerr := h.keys.Rollback(core.KeyIndexLocal); rerr != nil {
				return err
			}
			continue
		}
		return err
	}
}

// ReviveSwitch re-establishes the authenticated channel to a switch that
// rebooted while the controller stayed up. Whether the reboot was warm or
// cold is discovered, not assumed: the liveness probe heals lease-bumped
// replay floors, a verified digest alert triggers the one-rollover-behind
// repair (the switch was restored from a snapshot older than the last
// rollover, so the controller drops its newest key), and a switch that
// came back with no usable key state falls through to Reinitialize. The
// return value reports which path succeeded (true = warm, no K_seed use).
func (c *Controller) ReviveSwitch(sw string) (warm bool, err error) {
	h, err := c.handle(sw)
	if err != nil {
		return false, err
	}
	if c.Killed() {
		return false, ErrKilled
	}
	_ = c.ClearHealth(sw)
	if c.revive(h) == nil {
		if err := c.healPortLinks(sw); err != nil {
			return true, err
		}
		return true, c.autoPersist(sw)
	}
	if _, err = c.Reinitialize(sw); err != nil {
		return false, err
	}
	return false, c.healPortLinks(sw)
}

// healPortLinks restores DP-DP sequencing on every link touching a
// revived switch. A reboot breaks the link's sequence pairing in both
// directions: a warm restore lease-bumps the switch's replay floors above
// its peers' outbound counters, and a cold boot zeroes the switch's own
// outbound counters below the floors its peers kept. Either way the
// symptom is the same — every switch-to-switch port-key leg is silently
// replay-rejected forever, with no controller transaction involved to
// trigger the usual alert-driven skip-ahead. The repair is explicit:
// for each direction of each adjacent link, read the receiver's kx-stream
// replay floor and, if the sender's outbound counter is below it, write
// the counter up to the floor with an authenticated register write (the
// next DP-DP message then carries floor+1 and is accepted).
func (c *Controller) healPortLinks(sw string) error {
	var errs []error
	for _, lk := range c.links() {
		if lk[0].sw != sw && lk[1].sw != sw {
			continue
		}
		for _, dir := range [2][2]portKey{{lk[0], lk[1]}, {lk[1], lk[0]}} {
			if err := c.healPortDirection(dir[0], dir[1]); err != nil {
				errs = append(errs, fmt.Errorf("controller: heal %s:%d -> %s:%d: %w",
					dir[0].sw, dir[0].port, dir[1].sw, dir[1].port, err))
			}
		}
	}
	return errors.Join(errs...)
}

// healPortDirection aligns one direction of a link: sender src's
// pa_seq_out[port] must clear receiver dst's pa_seq[2*port+1] (the kx
// stream of the receiving port's slot).
func (c *Controller) healPortDirection(src, dst portKey) error {
	hs, err := c.handle(src.sw)
	if err != nil {
		return err
	}
	hd, err := c.handle(dst.sw)
	if err != nil {
		return err
	}
	floor, _, err := c.regRead(hd, core.RegSeq, uint32(2*dst.port+1))
	if err != nil {
		return err
	}
	out, _, err := c.regRead(hs, core.RegSeqOut, uint32(src.port))
	if err != nil {
		return err
	}
	if out >= floor {
		return nil
	}
	_, err = c.regWrite(hs, core.RegSeqOut, uint32(src.port), floor)
	return err
}

// replayJournal settles every surviving record for a switch, write by
// write: each WriteIntent is read back under the (recovered)
// authenticated channel — if the value is there the write landed before
// the crash and is retired; otherwise it is re-driven once, and marked
// failed if even that does not land. A fully-applied record is deleted,
// one with failures rewritten with each write's final state. Net effect:
// every journaled write is applied exactly once or reported failed, never
// silently lost and never doubled. A torn record's writes cannot be
// reconstructed: it is counted failed and left for the operator.
func (c *Controller) replayJournal(h *swHandle) (applied, redriven, failed int, err error) {
	st := c.stateStore()
	if st == nil {
		return 0, 0, 0, nil
	}
	keys, kerr := st.Keys("wal/" + h.name + "/")
	if kerr != nil {
		return 0, 0, 0, kerr
	}
	var errs []error
	ko := c.obsv()
	for _, k := range keys {
		b, lerr := st.Load(k)
		if lerr != nil {
			continue
		}
		e, derr := core.DecodeJournalBatch(b)
		if derr != nil {
			failed++
			errs = append(errs, fmt.Errorf("%s: %w", k, derr))
			continue
		}
		settled, dirty := true, false
		for i := range e.Writes {
			w := &e.Writes[i]
			switch w.State {
			case core.WriteFailed:
				failed++
			case core.WriteIntent:
				dirty = true
				got, _, rerr := c.regRead(h, w.Register, w.Index)
				if rerr == nil && got == w.Value {
					applied++
					ko.walApplied.Inc()
					ko.audit(obs.EvWALSettle, h.name, CauseWALRecovered, 0, e.ID)
					w.State = core.WriteApplied
				} else if _, werr := c.regWrite(h, w.Register, w.Index, w.Value); werr == nil {
					redriven++
					ko.walRedriven.Inc()
					ko.audit(obs.EvWALSettle, h.name, CauseWALRedriven, 0, e.ID)
					w.State = core.WriteApplied
				} else {
					errs = append(errs, fmt.Errorf("%s[%d]: re-drive: %w", k, i, werr))
					failed++
					ko.walFailed.Inc()
					ko.audit(obs.EvWALSettle, h.name, CauseWALFailed, 0, e.ID)
					w.State = core.WriteFailed
				}
			}
			settled = settled && w.State == core.WriteApplied
		}
		if settled {
			_ = st.Delete(k)
		} else if dirty {
			_ = st.Save(k, e.AppendEncode(nil))
		}
	}
	return applied, redriven, failed, errors.Join(errs...)
}

// WarmRestart recovers the controller's relationship with one switch
// after a restart: restore the persisted snapshot, resume sequence
// numbering past its high-water mark, revive the authenticated channel,
// settle the journal, and re-persist. It reports whether the restart was
// warm (no K_seed use); a missing, corrupt, or unusably stale snapshot
// degrades to Reinitialize.
func (c *Controller) WarmRestart(sw string) (warm bool, err error) {
	h, err := c.handle(sw)
	if err != nil {
		return false, err
	}
	st := c.stateStore()
	if st == nil {
		return false, errNoStore
	}
	if c.Killed() {
		return false, ErrKilled
	}
	_ = c.ClearHealth(sw) // a fresh process starts with a closed breaker
	if b, lerr := st.Load(ctlKey(sw)); lerr == nil {
		if snap, derr := core.DecodeSnapshot(b); derr == nil {
			if rerr := h.keys.Restore(snap); rerr == nil {
				h.seq.Resume(snap.SeqNext)
				warm = true
			}
		}
	}
	if warm && c.revive(h) != nil {
		warm = false
	}
	if !warm {
		if _, rerr := c.Reinitialize(sw); rerr != nil {
			return false, fmt.Errorf("controller: %s: cold recovery failed: %w", sw, rerr)
		}
	}
	if _, _, _, jerr := c.replayJournal(h); jerr != nil {
		return warm, jerr
	}
	return warm, c.SaveSnapshot(sw)
}

// RecoverAll runs WarmRestart for every registered switch in name order
// (determinism is part of the chaos-replay contract), reporting per-switch
// warmth. Per-switch failures are joined, not short-circuited: one
// unreachable switch must not block recovering the rest of the fabric.
func (c *Controller) RecoverAll() (map[string]bool, error) {
	out := make(map[string]bool)
	var errs []error
	for _, name := range c.switchNames() {
		warm, err := c.WarmRestart(name)
		out[name] = warm
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", name, err))
		}
	}
	return out, errors.Join(errs...)
}

// Reinitialize is the fallback when no usable snapshot exists: an
// out-of-band factory reset of the switch (wiping ALL its keys — port
// keys must be re-established afterwards), a matching reset of the
// controller's per-switch state, and a fresh EAK+ADHKD under K_seed.
func (c *Controller) Reinitialize(sw string) (KMPResult, error) {
	h, err := c.handle(sw)
	if err != nil {
		return KMPResult{}, err
	}
	if c.Killed() {
		return KMPResult{}, ErrKilled
	}
	if h.host.Down() {
		return KMPResult{}, fmt.Errorf("%w: %s: cannot re-seed a down switch", switchos.ErrDown, sw)
	}
	ko := c.obsv()
	ko.eakFallback.Inc()
	ko.audit(obs.EvEAKFallback, sw, CauseFactoryReset, 0, 0)
	if err := core.FactoryReset(h.host.SW, h.cfg); err != nil {
		return KMPResult{}, err
	}
	h.host.ClearCache()
	h.keys.ResetToSeed(h.cfg.Seed)
	h.seq.Reset()
	_ = c.ClearHealth(sw)
	return c.LocalKeyInit(sw)
}

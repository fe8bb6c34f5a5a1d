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
//   wal/<switch>/<id hex>  — one journal entry per in-flight register
//                            write, recorded before the wire send
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

// walBegin records a write intent before the wire send. Returns a zero
// intent (and writes nothing) when journaling is off or the process is
// dead. Requires h.opMu: the record is encoded into h.walBuf.
func (c *Controller) walBegin(h *swHandle, register string, index uint32, value uint64) (walIntent, error) {
	st := c.stateStore()
	if st == nil || c.Killed() {
		return walIntent{}, nil
	}
	id := c.walID.Add(1)
	j := walIntent{id: id, key: walKey(h.name, id)}
	e := core.JournalEntry{ID: id, Switch: h.name, Register: register, Index: index, Value: value, State: core.WriteIntent}
	h.walBuf = e.AppendEncode(h.walBuf[:0])
	return j, st.Save(j.key, h.walBuf)
}

// walSettle resolves an intent: applied entries are deleted, definite
// failures are rewritten as failed for the operator. A dead process
// settles nothing — that is the whole point of the journal: only a crash
// leaves an intent behind, so recovery knows exactly which writes are in
// doubt. Requires h.opMu, as walBegin.
func (c *Controller) walSettle(h *swHandle, j walIntent, applied bool, register string, index uint32, value uint64) {
	if j.id == 0 {
		return
	}
	st := c.stateStore()
	if st == nil || c.Killed() {
		return
	}
	ko := c.obsv()
	if applied {
		_ = st.Delete(j.key)
		ko.walApplied.Inc()
		ko.audit(obs.EvWALSettle, h.name, CauseWALApplied, 0, j.id)
		return
	}
	e := core.JournalEntry{ID: j.id, Switch: h.name, Register: register, Index: index, Value: value, State: core.WriteFailed}
	h.walBuf = e.AppendEncode(h.walBuf[:0])
	_ = st.Save(j.key, h.walBuf)
	ko.walFailed.Inc()
	ko.audit(obs.EvWALSettle, h.name, CauseWALFailed, 0, j.id)
}

// walBeginBatch records one group-commit intent record covering a whole
// pipelined window: a single durable Save before the first wire send.
// Returns a zero intent (and writes nothing) when journaling is off or
// the process is dead.
func (c *Controller) walBeginBatch(sw string, writes []RegWrite) (walIntent, error) {
	st := c.stateStore()
	if st == nil || c.Killed() {
		return walIntent{}, nil
	}
	id := c.walID.Add(1)
	j := walIntent{id: id, key: walKey(sw, id)}
	e := &core.JournalBatch{ID: id, Switch: sw, Writes: make([]core.BatchWrite, len(writes))}
	for i, w := range writes {
		e.Writes[i] = core.BatchWrite{Register: w.Register, Index: w.Index, Value: w.Value, State: core.WriteIntent}
	}
	return j, st.Save(j.key, e.Encode())
}

// walSettleBatch resolves a batch record after the windowed exchange:
// fully-applied batches are deleted; otherwise the record is rewritten
// with each entry's final state — no WriteIntent ever survives a live
// settle, so recovery's read-back only runs for genuine crashes.
func (c *Controller) walSettleBatch(sw string, j walIntent, entries []batchEntry) {
	if j.id == 0 {
		return
	}
	st := c.stateStore()
	if st == nil || c.Killed() {
		return
	}
	allOK := true
	for i := range entries {
		if entries[i].err != nil {
			allOK = false
			break
		}
	}
	ko := c.obsv()
	if allOK {
		_ = st.Delete(j.key)
		ko.walApplied.Add(uint64(len(entries)))
		ko.audit(obs.EvWALSettle, sw, CauseWALApplied, 0, j.id)
		return
	}
	e := &core.JournalBatch{ID: j.id, Switch: sw, Writes: make([]core.BatchWrite, len(entries))}
	for i := range entries {
		state := core.WriteApplied
		if entries[i].err != nil {
			state = core.WriteFailed
			ko.walFailed.Inc()
		} else {
			ko.walApplied.Inc()
		}
		e.Writes[i] = core.BatchWrite{
			Register: entries[i].register, Index: entries[i].index,
			Value: entries[i].value, State: state,
		}
	}
	_ = st.Save(j.key, e.Encode())
	ko.audit(obs.EvWALSettle, sw, CauseWALFailed, 0, j.id)
}

// JournalEntries returns the decoded journal entries persisted for a
// switch, in ID order, with batch records expanded into their per-write
// entries. Undecodable (torn) records are skipped.
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
		if e, derr := core.DecodeJournalEntry(b); derr == nil {
			out = append(out, *e)
		} else if be, berr := core.DecodeJournalBatch(b); berr == nil {
			out = append(out, be.Entries()...)
		}
	}
	return out, nil
}

// Liveness proves the switch is up and the shared local key works: an
// authenticated read of pa_ver[0]. Verified replay alerts are healed in
// place — each one skips the sequence counter a FloorLease forward (the
// switch answered under the shared key, so it is alive and the key is
// good; only the counter lags its restored floor) — and the probe is
// retried with a fresh sequence number. Any other failure is returned.
func (c *Controller) Liveness(sw string) error {
	h, err := c.handle(sw)
	if err != nil {
		return err
	}
	return c.liveness(h)
}

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
//     key whose confirmation the crash ate) via resyncLocal's
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
			var res KMPResult
			return c.resyncLocal(h, &res)
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

// replayJournal settles every surviving intent for a switch: read the
// register back under the (recovered) authenticated channel — if the
// value is there the write landed before the crash and the entry is
// retired; otherwise the write is re-driven once, and marked failed if
// even that does not land. Net effect: every journaled write is applied
// exactly once or reported failed, never silently lost and never doubled.
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
	for _, k := range keys {
		b, lerr := st.Load(k)
		if lerr != nil {
			continue
		}
		e, derr := core.DecodeJournalEntry(b)
		if derr != nil {
			if be, berr := core.DecodeJournalBatch(b); berr == nil {
				a, r, f, berrs := c.replayJournalBatch(h, st, k, be)
				applied += a
				redriven += r
				failed += f
				if berrs != nil {
					errs = append(errs, berrs)
				}
				continue
			}
			// Torn record: its write cannot be reconstructed. Leave it for
			// the operator and report.
			failed++
			errs = append(errs, fmt.Errorf("%s: %w", k, derr))
			continue
		}
		switch e.State {
		case core.WriteApplied:
			_ = st.Delete(k) // stray: normally deleted at settle time
		case core.WriteFailed:
			failed++ // kept for the operator
		case core.WriteIntent:
			ko := c.obsv()
			got, _, rerr := c.regRead(h, e.Register, e.Index)
			if rerr == nil && got == e.Value {
				applied++
				ko.walApplied.Inc()
				ko.audit(obs.EvWALSettle, h.name, CauseWALRecovered, 0, e.ID)
				_ = st.Delete(k)
				continue
			}
			if _, werr := c.regWrite(h, e.Register, e.Index, e.Value); werr == nil {
				redriven++
				ko.walRedriven.Inc()
				ko.audit(obs.EvWALSettle, h.name, CauseWALRedriven, 0, e.ID)
				_ = st.Delete(k)
				continue
			} else {
				errs = append(errs, fmt.Errorf("%s: re-drive: %w", k, werr))
			}
			failed++
			ko.walFailed.Inc()
			ko.audit(obs.EvWALSettle, h.name, CauseWALFailed, 0, e.ID)
			e.State = core.WriteFailed
			_ = st.Save(k, e.Encode())
		}
	}
	return applied, redriven, failed, errors.Join(errs...)
}

// replayJournalBatch settles one surviving group-commit record with the
// same per-entry discipline as single intents: each WriteIntent is
// disambiguated by authenticated read-back, re-driven once if absent,
// and marked failed otherwise. A fully-settled batch is deleted; a batch
// with failures is rewritten with per-entry final states.
func (c *Controller) replayJournalBatch(h *swHandle, st statestore.Store, k string, e *core.JournalBatch) (applied, redriven, failed int, err error) {
	var errs []error
	dirty := false
	for i := range e.Writes {
		w := &e.Writes[i]
		switch w.State {
		case core.WriteApplied:
			// Settled before the crash (a live settle would have rewritten
			// or deleted the record); nothing to do.
		case core.WriteFailed:
			failed++
		case core.WriteIntent:
			ko := c.obsv()
			got, _, rerr := c.regRead(h, w.Register, w.Index)
			if rerr == nil && got == w.Value {
				applied++
				ko.walApplied.Inc()
				ko.audit(obs.EvWALSettle, h.name, CauseWALRecovered, 0, e.ID)
				w.State = core.WriteApplied
				dirty = true
				continue
			}
			if _, werr := c.regWrite(h, w.Register, w.Index, w.Value); werr == nil {
				redriven++
				ko.walRedriven.Inc()
				ko.audit(obs.EvWALSettle, h.name, CauseWALRedriven, 0, e.ID)
				w.State = core.WriteApplied
				dirty = true
				continue
			} else {
				errs = append(errs, fmt.Errorf("%s[%d]: re-drive: %w", k, i, werr))
			}
			failed++
			ko.walFailed.Inc()
			ko.audit(obs.EvWALSettle, h.name, CauseWALFailed, 0, e.ID)
			w.State = core.WriteFailed
			dirty = true
		}
	}
	allSettled := true
	for i := range e.Writes {
		if e.Writes[i].State != core.WriteApplied {
			allSettled = false
			break
		}
	}
	if allSettled {
		_ = st.Delete(k)
	} else if dirty {
		_ = st.Save(k, e.Encode())
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

// Root fault tolerance (Config.JournalDir): the sealed epoch journal, the
// standby-replay path, and the simulated root crash (Crash, and the
// crash-point hook the exactly-once table drives).
//
// Exactly-once argument, end to end:
//
//   - Journal-before-dispatch. What an epoch's stage A read — each plane's
//     request snapshot, after the ACL flip — and its reply routing tables
//     (client idempotency IDs per plane row) are durably journaled BEFORE
//     any partition sees the batches. Not journaled ⇒ never applied, so a
//     client retry of an unacknowledged request re-executes as a fresh
//     request — safe.
//   - Replay is a live epoch. Stage A is a pure function of the request
//     snapshot, the pinned routing key, S, λ and the block size (the batch
//     sort order is total: Seq is the row index), so a successor that
//     re-runs stage A over the journaled snapshot builds byte-identical
//     batches, and a journal written under another shape fails the open.
//   - Tagged delivery. Every delivery of epoch E travels under the tag
//     (stream, E); the stream is derived from the routing key the journal
//     pins, so every root incarnation derives the same one. A partition
//     server runs its partition behind a delivery window keyed by the tag
//     (transport.Window). A successor replaying a journaled epoch re-issues
//     the identical delivery, on whichever client handle now serves the
//     partition, and a partition that already applied it answers from its
//     window instead of applying twice. Journaled ⇒ applied at most once.
//   - Reply window. Successful results of idempotent requests are parked
//     under their client-chosen IDs (on the original root at reply time,
//     on a successor at replay time), so a retry of an already-answered
//     request returns the original result. A crashed root answers nothing
//     (every wait on it returns ErrRootDown), so one attempt never yields
//     two answers — and completes nothing in its journal, so an epoch whose
//     replies a crash cut short is replayed and parked by the successor.
//
// A partition applies a delivery — the epoch's L batches under one tag —
// whole or not at all, so one it fails leaves nothing to apply twice.
// TestJournalExactlyOnce enumerates every crash point against every
// partition fate at depths 1 and 2. Known degradation: a partition server
// that applied an epoch and then lost its window (restarted, or replaced
// by a standby) re-applies it on replay — at-least-once, as are requests
// that carry no idempotency ID (id 0).
package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"snoopy/internal/crypt"
	"snoopy/internal/persist"
)

// deliveryStream derives the journaled root's delivery-stream identity from
// the routing key the journal pins: every incarnation over the same journal
// directory derives the same stream.
func deliveryStream(key crypt.Key) uint64 {
	d := crypt.DigestOf(append([]byte("snoopy-core/delivery-stream/v1"), key[:]...))
	return binary.LittleEndian.Uint64(d[:])
}

// tableSecret derives a journaled root's table-key secret from the routing
// key the journal pins: every incarnation re-running epoch E derives the
// same K(l, s, E) and rebuilds E's batches byte for byte.
func tableSecret(key crypt.Key) crypt.Key {
	return crypt.Key(crypt.DigestOf(append([]byte("snoopy-core/table-key/v1"), key[:]...)))
}

// journalBegin durably journals an epoch before its dispatch: each plane's
// request snapshot and reply routing (client idempotency IDs in queue
// order). No-op without a journal. Caller holds epochMu.
func (sys *System) journalBegin(job *epochJob) error {
	if sys.journal == nil {
		return nil
	}
	// The record is scratch reused across epochs (Begin copies everything
	// it keeps into the sealed log), so steady-state journaling allocates
	// nothing per epoch.
	rec := &sys.jrec
	rec.Epoch, rec.ACLOK = job.id, job.aclErr == nil
	rec.BlockSize, rec.Lambda, rec.Partitions = sys.cfg.BlockSize, sys.cfg.Lambda, len(sys.subs)
	if rec.Planes == nil {
		rec.Planes = make([]persist.JournalPlane, len(sys.lbs))
	}
	for i := range job.eps {
		p := &rec.Planes[i]
		p.Reqs = job.eps[i].reqs
		p.IDs = p.IDs[:0]
		for _, q := range job.queues[i] {
			p.IDs = append(p.IDs, q.ID)
		}
		p.Denied = nil
		if job.denied != nil {
			p.Denied = job.denied[i]
		}
	}
	return sys.journal.Begin(rec)
}

// checkJournalShape refuses an open epoch journaled under another shape:
// its batches cannot be rebuilt here, and completing it unreplayed would
// let client retries apply its writes a second time.
func (sys *System) checkJournalShape(je *persist.JournalEpoch) error {
	if len(je.Planes) == len(sys.lbs) && je.Partitions == len(sys.subs) &&
		je.BlockSize == sys.cfg.BlockSize && je.Lambda == sys.cfg.Lambda {
		return nil
	}
	return fmt.Errorf("core: journal epoch %d is open under L=%d S=%d block=%d λ=%d, but this root is L=%d S=%d block=%d λ=%d; reopen it under the journal's shape to drain it",
		je.Epoch, len(je.Planes), je.Partitions, je.BlockSize, je.Lambda, len(sys.lbs), len(sys.subs), sys.cfg.BlockSize, sys.cfg.Lambda)
}

// journalComplete marks an epoch fully replied; the journal drops it from
// the replay set (and compacts once the open set drains). A failure does not
// un-answer the epoch — at worst a successor replays it, idempotently — so it
// is counted (Health().JournalErrors, persist_journal_errors_total) rather
// than returned.
func (sys *System) journalComplete(epoch uint64) {
	if sys.journal == nil {
		return
	}
	if err := sys.journal.Complete(epoch); err != nil {
		sys.statsMu.Lock()
		sys.health.JournalErrors++
		sys.statsMu.Unlock()
	}
}

// errJournaledFailure stands in, on replay, for an ACL error the journal
// records only as a flag: stage C fails (and parks nothing for) the epoch's
// requests, exactly as the live epoch would have.
var errJournaledFailure = errors.New("core: journaled epoch failed before dispatch")

// replayEpoch runs one journaled epoch through the engine like a live one:
// restore each plane's queue from the record, re-run stage A over it,
// dispatch — under the same (stream, epoch) tags, so a partition that
// already applied it answers from its delivery window — and wait until it
// completes. Stage C matches under the live rules — failed partitions,
// Theorem-3 drops and ACL denials included — and parks the answers under
// the journaled idempotency IDs; the reply channels have no reader. The
// shape was checked when the journal opened (checkJournalShape).
func (sys *System) replayEpoch(je *persist.JournalEpoch) {
	job := sys.newJob(je.Epoch)
	job.replayed = true
	job.denied = make([][]uint8, len(je.Planes))
	if !je.ACLOK {
		job.aclErr = errJournaledFailure
	}
	for i := range je.Planes {
		p := &je.Planes[i]
		q := make([]pending, len(p.IDs))
		for j, id := range p.IDs {
			q[j] = pending{Request: Request{Op: p.Reqs.Op[j], Key: p.Reqs.Key[j], Value: p.Reqs.Block(j), ID: id}, ch: make(chan result, 1)}
		}
		job.queues[i], job.denied[i] = q, p.Denied
		sys.stageAPlane(job, i)
	}
	sys.depthSem <- struct{}{} // nothing else is in flight before the system serves
	sys.dispatch(job)
	sys.settle(0)
}

// --- simulated root crash ---------------------------------------------

// signalCrash transitions the system to the crashed state: submits fail
// with ErrRootDown, and every wait on closed — a Flush blocked on a
// pipeline slot included — returns. The observable behavior of a killed
// root process.
func (sys *System) signalCrash() {
	sys.crashOne.Do(func() { close(sys.crashedCh) })
	sys.halt()
}

// crash is signalCrash plus shutting the partition queues, for a caller
// not holding epochMu. The signal comes first: a Flush holding epochMu may
// be blocked on a pipeline slot that only the signal frees.
func (sys *System) crash() {
	sys.signalCrash()
	sys.epochMu.Lock()
	sys.shutPipe()
	sys.epochMu.Unlock()
}

// crashAt consults the crash hook at a pre-dispatch point: "stage-a"
// (after batching, before journaling) or "journal" (after the journal
// commit, before dispatch). On crash it marks the system dead, releases
// the job's storage, and answers nothing — every client wait observes
// ErrRootDown through await. Caller holds epochMu; on true it has been
// released.
func (sys *System) crashAt(point string, job *epochJob) bool {
	if sys.crashHook == nil || !sys.crashHook(point, job.id) {
		return false
	}
	sys.signalCrash()
	sys.shutPipe()
	sys.epochMu.Unlock()
	sys.failJob(job, ErrRootDown)
	return true
}

// crashAfterDispatch consults the hook at the post-execution point, on the
// sequencer: the partitions applied the epoch, but no reply (and no journal
// completion) was issued — the window where only the journal keeps the
// epoch's effects observable. Replayed epochs do not consult it.
func (sys *System) crashAfterDispatch(job *epochJob) bool {
	if job.replayed || sys.crashHook == nil || !sys.crashHook("dispatch", job.id) {
		return false
	}
	sys.crash()
	return true
}

// Crash simulates a root process death from outside an epoch (a test's
// kill switch): the system stops silently, pending requests and epochs in
// flight are never answered, their epochs stay open in the journal, and
// every wait on them returns ErrRootDown.
func (sys *System) Crash() {
	sys.crash()
	sys.wg.Wait()
}

// Crashed reports whether the root is in the (simulated) crashed state.
func (sys *System) Crashed() bool {
	select {
	case <-sys.crashedCh:
		return true
	default:
		return false
	}
}

package storage

import "errors"

// crashForTest simulates a kill -9: background workers are abandoned
// before they can touch disk again, WAL files are closed without a
// flush, and the engine is left unusable. The data directory afterwards
// is exactly what a crashed process leaves behind, so reopening it
// exercises per-shard WAL replay.
func crashForTest(e *Engine) {
	e.closed.Store(true)
	for _, s := range e.shards {
		s.mu.Lock()
		s.closing = true
		s.abandoned = true
		if s.wal != nil {
			s.wal.sync()
			s.wal.close()
			s.wal = nil
		}
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

// frozenCount returns how many memtables are queued for flush across
// all shards.
func frozenCount(e *Engine) int {
	n := 0
	for _, s := range e.shards {
		s.mu.RLock()
		n += len(s.frozen)
		s.mu.RUnlock()
	}
	return n
}

// failFlushes makes every table write — a flush's, a compaction's or a
// purge's — fail with msg until clearFlushFault.
func failFlushes(e *Engine, msg string) {
	failJobs(e, func(jobKind) bool { return true }, msg)
}

// failJobs makes the table writes of the jobs whose kind matches fail
// with msg until clearFlushFault.
func failJobs(e *Engine, match func(jobKind) bool, msg string) {
	hook := func(_ int, kind jobKind) error {
		if match(kind) {
			return errors.New(msg)
		}
		return nil
	}
	e.testFlushErr.Store(&hook)
}

// clearFlushFault removes the failFlushes hook and waits out any flush
// attempt that loaded it beforehand, so the caller's next Flush reports
// a retry that ran without the fault.
func clearFlushFault(e *Engine) {
	e.testFlushErr.Store(nil)
	for _, s := range e.shards {
		s.mu.Lock()
		for s.busy {
			s.cond.Wait()
		}
		s.mu.Unlock()
	}
}

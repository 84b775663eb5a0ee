package storage

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"scalekv/internal/enc"
	"scalekv/internal/memtable"
	"scalekv/internal/row"
	"scalekv/internal/sstable"
)

// frozenMem is an immutable memtable queued for flush, together with
// the WAL segments that made it durable. The worker deletes the
// segments only after the SSTable is live, so a crash at any point
// between freeze and flush replays them on the next Open.
type frozenMem struct {
	mem      *memtable.Memtable
	walPaths []string
	t        *ticket // a Flush waiting on this memtable, or nil
}

// tableHandle reference-counts an SSTable reader so the compactor can
// retire inputs while reads are in flight. The shard's level lists own
// one reference; every snapshot pins one more. The last release closes
// the file, deleting it too when the table was superseded. The handle
// also carries the table's partition-key bounds and file size — the
// level machinery's working data — so picking a compaction never
// touches the tables themselves.
type tableHandle struct {
	*sstable.Reader
	first string // smallest partition key in the table
	last  string // largest partition key in the table
	size  int64  // file size in bytes
	refs  atomic.Int64
	drop  atomic.Bool // superseded by compaction: unlink on last release
}

// newTableHandle wraps a freshly opened reader, reading its bounds once
// (manifest-loaded tables take the recorded bounds instead and skip
// this).
func newTableHandle(r *sstable.Reader) (*tableHandle, error) {
	first, last, err := r.Bounds()
	if err != nil {
		return nil, err
	}
	h := &tableHandle{Reader: r, first: first, last: last, size: r.Size()}
	h.refs.Store(1) // list ownership
	return h, nil
}

func (h *tableHandle) acquire() { h.refs.Add(1) }

func (h *tableHandle) release() error {
	if h.refs.Add(-1) > 0 {
		return nil
	}
	path := h.Path()
	err := h.Close()
	if h.drop.Load() {
		os.Remove(path)
	}
	return err
}

// overlaps reports whether the table's key range intersects [lo, hi].
func (h *tableHandle) overlaps(lo, hi string) bool {
	return h.first <= hi && lo <= h.last
}

// shardView is a consistent read snapshot of one shard: the active
// memtable, the frozen queue and the pinned table list — the levels
// flattened oldest-first (deepest level first, L0 last in flush order),
// so merge tie-breaks on equal versions resolve to the newer source.
// Views are immutable and atomically published (see publishLocked);
// readers acquire one with snapshot() and must close it when done so
// superseded tables can be retired.
type shardView struct {
	mem    *memtable.Memtable
	frozen []*frozenMem
	tables []*tableHandle // oldest → newest
	refs   atomic.Int64
}

func (v *shardView) close() {
	if v.refs.Add(-1) > 0 {
		return
	}
	for _, t := range v.tables {
		t.release()
	}
}

// shard is one lock stripe of the engine: a full miniature LSM tree
// with its own write path, WAL segments, leveled SSTable tree and
// background worker. Writes and freezes hold mu exclusively but never
// wait on SSTable I/O; the worker holds mu only to take work and to
// swap results in. Reads never touch mu at all: every mutation that
// changes the read sources (memtable swap, flush accept, compaction or
// purge table swap) republishes an immutable shardView through the
// atomic view pointer, and readers pin it with one CAS.
//
// levels[0] is the flush landing zone: tables in arrival order, ranges
// freely overlapping. levels[n] for n >= 1 hold tables with pairwise
// disjoint partition-key ranges, sorted by first key, each level
// budgeted at LevelBaseBytes * 10^(n-1) bytes. The worker promotes
// overflow downward (see pickLeveledLocked), merging only the overlapping
// slice of the next level — the leveled policy that bounds both write
// amplification and table count, replacing the old whole-shard
// full-merge whose rewrite cost grew quadratically with data size.
type shard struct {
	id  int
	eng *Engine

	mu   sync.RWMutex
	cond *sync.Cond // paired with &mu; broadcast on every state change

	// view is the current read snapshot; see publishLocked/snapshot.
	view atomic.Pointer[shardView]
	// partGen counts mutations to this shard's partition set: a write
	// creating a new (pk, ck) address, a purge removing partitions, a
	// compaction collapsing tombstone-only ones. The engine's merged
	// partition index records the generations it was built from and is
	// rebuilt when any shard's moved — write invalidation for free.
	partGen atomic.Uint64

	mem        *memtable.Memtable
	frozen     []*frozenMem     // oldest first
	levels     [][]*tableHandle // levels[0] = L0; deeper levels range-partitioned
	compactCur []int            // per-level round-robin pick cursor
	wal        *wal             // active segment, opened lazily on first write
	walSeq     int              // next WAL segment number
	sstSeq     int              // next SSTable sequence number
	memGen     int64            // memtable generation, seeds the skip list
	flushAt    int64            // active memtable bytes that freeze it (see flushThreshold)

	compactReq bool       // leveled maintenance wanted (see pickLeveledLocked)
	requests   []*request // foreground purges and major compactions, oldest first
	busy       bool       // worker is writing tables outside the lock
	flushErr   error      // last failed flush or leveled job; cleared by the next success
	closing    bool
	abandoned  bool // simulated crash (tests): worker must not touch disk
}

// maxLevels bounds the level tree. The deepest level has no size
// budget — it is the bottom of the tree; its size is the dataset's.
const maxLevels = 7

func (s *shard) sstPath(seq int) string {
	return filepath.Join(s.eng.opts.Dir, fmt.Sprintf("sst-s%02d-%06d.db", s.id, seq))
}

func (s *shard) walPath(seq int) string {
	return filepath.Join(s.eng.opts.Dir, fmt.Sprintf("wal-s%02d-%06d.log", s.id, seq))
}

// noteSSTName pulls sstSeq past the sequence number embedded in an
// on-disk table name so new tables never collide with existing files.
func (s *shard) noteSSTName(base string) {
	if n, ok := tableSeq(base, s.id); ok && n >= s.sstSeq {
		s.sstSeq = n + 1
	}
}

// allTablesLocked flattens the level tree oldest-first: deepest level
// first, then upward, L0 last in arrival order — the merge order every
// reader and compaction uses. Caller holds mu.
func (s *shard) allTablesLocked() []*tableHandle {
	var out []*tableHandle
	for n := len(s.levels) - 1; n >= 0; n-- {
		out = append(out, s.levels[n]...)
	}
	return out
}

func (s *shard) totalTablesLocked() int {
	n := 0
	for _, lvl := range s.levels {
		n += len(lvl)
	}
	return n
}

// openShard loads one shard's level manifest and SSTables and replays
// its WAL segments, oldest first, each into its own frozen memtable
// queued for background flush. The engine's version counter is pulled
// forward past every version seen (table footers record their max
// sequence; WAL records carry theirs), so post-recovery writes always
// order after pre-crash ones. On-disk tables the manifest does not list
// — or all of them, when the shard never committed a manifest — are
// crash leftovers (renamed but never committed); they are swept, their
// data still covered by WAL segments or by the compaction inputs that
// survived.
func (e *Engine) openShard(id int) (*shard, error) {
	s := &shard{id: id, eng: e, mem: e.newMemtable(id, 0), flushAt: flushThreshold(e.opts.FlushThreshold, id, e.opts.Shards)}
	s.cond = sync.NewCond(&s.mu)

	releaseAll := func() {
		for _, t := range s.allTablesLocked() {
			t.release()
		}
	}

	entries, err := readShardManifest(s.manifestPath(), id)
	if err != nil {
		return nil, err
	}
	known := map[string]bool{}
	for _, ent := range entries {
		if ent.level >= maxLevels {
			releaseAll()
			return nil, fmt.Errorf("storage: manifest-s%02d places %s at level %d (max %d)", id, ent.name, ent.level, maxLevels-1)
		}
		r, err := e.openTable(filepath.Join(e.opts.Dir, ent.name))
		if err != nil {
			releaseAll()
			return nil, fmt.Errorf("storage: reopen manifest-listed %s: %w", ent.name, err)
		}
		e.advanceSeq(r.MaxSeq())
		h := &tableHandle{Reader: r, first: ent.first, last: ent.last, size: r.Size()}
		h.refs.Store(1)
		for len(s.levels) <= ent.level {
			s.levels = append(s.levels, nil)
		}
		s.levels[ent.level] = append(s.levels[ent.level], h)
		known[ent.name] = true
		s.noteSSTName(ent.name)
	}
	for n := 1; n < len(s.levels); n++ {
		lvl := s.levels[n]
		sort.Slice(lvl, func(a, b int) bool { return lvl[a].first < lvl[b].first })
	}

	names, err := filepath.Glob(filepath.Join(e.opts.Dir, fmt.Sprintf("sst-s%02d-*.db", id)))
	if err != nil {
		releaseAll()
		return nil, err
	}
	for _, name := range names {
		base := filepath.Base(name)
		if known[base] {
			continue
		}
		// Orphan: renamed into place but never committed to the
		// manifest. Its cells live on in the WAL (un-flushed) or in the
		// compaction inputs the manifest still lists.
		s.noteSSTName(base)
		os.Remove(name)
	}

	if !e.opts.DisableWAL {
		segs, err := filepath.Glob(filepath.Join(e.opts.Dir, fmt.Sprintf("wal-s%02d-*.log", id)))
		if err != nil {
			releaseAll()
			return nil, err
		}
		sort.Strings(segs)
		for _, seg := range segs {
			s.memGen++
			rec := e.newMemtable(id, s.memGen)
			if err := replayWAL(seg, func(r row.Entry) {
				e.advanceSeq(r.Ver.Seq)
				rec.Put(r.PK, r.CK, r.Value, r.Ver, r.Tombstone)
			}); err != nil {
				releaseAll()
				return nil, err
			}
			var n int
			fmt.Sscanf(filepath.Base(seg), fmt.Sprintf("wal-s%02d-%%06d.log", id), &n)
			if n >= s.walSeq {
				s.walSeq = n + 1
			}
			if rec.Len() == 0 {
				// The segment held no intact records at all. Retire it now:
				// nothing else ever would, and it would be re-replayed on
				// every reopen.
				os.Remove(seg)
				continue
			}
			rec.Freeze()
			s.frozen = append(s.frozen, &frozenMem{mem: rec, walPaths: []string{seg}})
		}
		s.memGen++
		s.mem = e.newMemtable(id, s.memGen)
	}
	// No concurrency yet — the worker starts after Open returns — but the
	// view must exist before the first read.
	s.publishLocked()
	return s, nil
}

// newMemtable builds one shard's memtable of one generation: a distinct
// deterministic skip-list seed per shard and generation, and a key
// filter sized for the largest threshold a shard freezes at.
func (e *Engine) newMemtable(id int, gen int64) *memtable.Memtable {
	return memtable.New(e.opts.Seed+int64(id)*1_000_003+gen, e.opts.FlushThreshold)
}

// publishLocked installs a fresh immutable view of the shard's read
// sources and retires the previous one. Called under mu at every point
// the sources change: memtable freeze, flush accept, compaction swap,
// purge swap, open and close. The frozen and flattened table slices are
// never mutated in place after publication, so readers traverse them
// without any synchronization beyond the pointer load.
func (s *shard) publishLocked() {
	nv := &shardView{mem: s.mem, frozen: s.frozen, tables: s.allTablesLocked()}
	nv.refs.Store(1) // the publisher's reference: the view is current
	for _, t := range nv.tables {
		t.acquire()
	}
	if old := s.view.Swap(nv); old != nil {
		old.close()
	}
}

// snapshot pins the shard's current read view: one atomic load and one
// CAS, no locks, no allocation. The CAS increments refs only when the
// observed count is positive — a view at zero is being retired by a
// concurrent publish, and bumping it back would resurrect tables whose
// release already began; retry on the freshly published pointer
// instead. The publisher's own reference makes the first attempt
// succeed in all but the publication instant.
func (s *shard) snapshot() *shardView {
	for {
		v := s.view.Load()
		if r := v.refs.Load(); r > 0 && v.refs.CompareAndSwap(r, r+1) {
			return v
		}
	}
}

// ensureWALLocked opens the active WAL segment on first use. Lazy
// creation keeps idle shards from littering the directory. Caller holds
// mu.
func (s *shard) ensureWALLocked() error {
	if s.eng.opts.DisableWAL || s.wal != nil {
		return nil
	}
	w, err := openWAL(s.walPath(s.walSeq))
	if err != nil {
		return err
	}
	s.wal = w
	s.walSeq++
	return nil
}

// putBatch is a shard's one write path, behind Engine.Put, Delete and
// PutBatch: one lock acquisition and one WAL write for the whole slice.
// Entries arrive already stamped with their versions.
func (s *shard) putBatch(entries []row.Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return errClosed
	}
	if err := s.checkBacklogLocked(); err != nil {
		return err
	}
	if err := s.ensureWALLocked(); err != nil {
		return err
	}
	if s.wal != nil {
		if err := s.wal.appendBatch(entries); err != nil {
			return err
		}
		if s.eng.opts.Sync == SyncAlways {
			if err := s.wal.sync(); err != nil {
				return err
			}
		}
	}
	inserted := false
	for _, ent := range entries {
		if s.mem.Put(ent.PK, ent.CK, ent.Value, ent.Ver, ent.Tombstone) {
			inserted = true
		}
	}
	if inserted {
		s.partGen.Add(1)
	}
	s.freezeIfFullLocked()
	return nil
}

// flushThreshold is shard id's freeze point: the shards' points are
// spread evenly over (¾·ceiling, ceiling], shard 0 at the ceiling. Shards
// fed alike would otherwise freeze, flush and compact in lockstep, in
// waves; out of step they fill and drain one at a time. A one-shard
// engine freezes at the ceiling.
func flushThreshold(ceiling int64, id, shards int) int64 {
	return ceiling - ceiling/4*int64(id)/int64(shards)
}

// freezeIfFullLocked freezes the active memtable once it holds the
// shard's threshold. Caller holds mu.
func (s *shard) freezeIfFullLocked() {
	if s.mem.Bytes() >= s.flushAt {
		s.freezeLocked()
	}
}

// freezeLocked seals the active memtable and WAL segment and queues
// them for the background worker, installing a fresh memtable. It
// cannot fail: the commit point is a pointer swap, and the next WAL
// segment is opened lazily by the next write. A no-op on an empty
// memtable. Caller holds mu.
func (s *shard) freezeLocked() {
	if s.mem.Len() == 0 {
		return
	}
	fm := &frozenMem{mem: s.mem}
	if s.wal != nil {
		// SyncOnSeal's durability point: the segment is complete, flush
		// it to stable storage before handing the memtable off. A sync
		// failure cannot fail the freeze (the pointer swap must happen);
		// it surfaces through the background-error channel instead — the
		// SSTable the worker writes supersedes the segment anyway.
		if s.eng.opts.Sync != SyncNever {
			if err := s.wal.sync(); err != nil && s.flushErr == nil {
				s.flushErr = err
			}
		}
		// The sealed segment's records are already written; closing the
		// descriptor cannot unwrite them, so a close error is not a
		// freeze failure.
		_ = s.wal.close()
		fm.walPaths = []string{s.wal.path}
		s.wal = nil
	}
	s.mem.Freeze()
	s.memGen++
	s.mem = s.eng.newMemtable(s.id, s.memGen)
	s.frozen = append(s.frozen, fm)
	s.publishLocked()
	s.cond.Broadcast()
}

// ticket is one foreground call's wait at one shard (see worker): the
// call waits on cond until done is set, under mu.
type ticket struct {
	done bool
	err  error
	n    int64 // the cells a purge removed
}

// request is a foreground request queued on a shard: a DeleteRange's
// purge of the partitions whose token falls in [lo, hi], or a Compact's
// major compaction.
type request struct {
	kind   jobKind // jobPurge or jobMajor
	lo, hi int64
	ticket
}

// covers reports whether the purge drops partition pk.
func (r *request) covers(pk string) bool {
	tok := PartitionToken(pk)
	return r.lo <= tok && tok <= r.hi
}

// settleLocked settles t unless it is nil or settled. Caller holds mu.
func (s *shard) settleLocked(t *ticket, n int64, err error) {
	if t != nil && !t.done {
		t.done, t.n, t.err = true, n, err
		s.cond.Broadcast()
	}
}

// enqueueLocked queues one foreground request and returns the ticket
// its caller waits on; a closing shard answers errClosed. A purge first
// freezes the active memtable. A flush takes the newest frozen
// memtable's ticket — flushes install in queue order, so it covers every
// memtable queued now — replacing one a failed flush settled, for the
// retry. Caller holds mu.
func (s *shard) enqueueLocked(kind jobKind, lo, hi int64) *ticket {
	switch {
	case s.closing:
		return &ticket{done: true, err: errClosed}
	case kind == jobFlush && len(s.frozen) == 0:
		return &ticket{done: true}
	case kind == jobFlush:
		fm := s.frozen[len(s.frozen)-1]
		if fm.t == nil || fm.t.done {
			fm.t = new(ticket)
		}
		return fm.t
	case kind == jobPurge:
		s.freezeLocked()
	}
	r := &request{kind: kind, lo: lo, hi: hi}
	s.requests = append(s.requests, r)
	return &r.ticket
}

// failQueuedLocked settles every ticket at the shard with err; the
// frozen memtables stay queued, the requests are dropped. Caller holds
// mu.
func (s *shard) failQueuedLocked(err error) {
	for _, fm := range s.frozen {
		s.settleLocked(fm.t, 0, err)
	}
	for _, r := range s.requests {
		s.settleLocked(&r.ticket, 0, err)
	}
	s.requests = nil
}

// waitDrainedLocked blocks until the shard has no queued or running
// background work, returning early with any background error. Caller
// holds mu.
func (s *shard) waitDrainedLocked() error {
	for len(s.frozen) > 0 || s.busy || s.compactReq || len(s.requests) > 0 {
		if s.flushErr != nil {
			return s.flushErr
		}
		if s.closing {
			return errClosed
		}
		s.cond.Wait()
	}
	return s.flushErr
}

// --- background jobs -----------------------------------------------------------

// jobKind is what a job is for: the runner settles each kind's queue,
// ticket, metrics and partition generation once its result is live.
type jobKind int

const (
	jobFlush   jobKind = iota // the oldest frozen memtable into one L0 table
	jobPurge                  // a DeleteRange: every table, without the range's partitions
	jobMajor                  // Engine.Compact: every table into one sorted run
	jobLeveled                // an overflowing level's tables into the next level
	jobRelink                 // a table overlapping nothing below changes level, no I/O
)

// job is one unit of background work. Every kind but the relink is one
// merge (mergeTables) of its sources into new tables at level dst, which
// the runner (runLocked) writes outside the lock and installs.
type job struct {
	kind   jobKind
	mem    *frozenMem     // flush: the frozen head, the merge's one source
	inputs []*tableHandle // table sources, oldest first; a relink's table
	dst    int            // level the outputs land in
	gcOK   bool           // inputs cover every table overlapping their range
	req    *request       // purge or major compaction: the request it serves

	dropped, gced, bytesOut int64 // what the merge did, set by mergeTables
}

// levelBudget is the byte budget of level n (n >= 1):
// LevelBaseBytes * 10^(n-1). The deepest allowed level is unbudgeted.
func (s *shard) levelBudget(n int) int64 {
	b := s.eng.opts.LevelBaseBytes
	for i := 1; i < n; i++ {
		if b > math.MaxInt64/10 {
			return math.MaxInt64
		}
		b *= 10
	}
	return b
}

func levelBytes(tables []*tableHandle) int64 {
	var n int64
	for _, t := range tables {
		n += t.size
	}
	return n
}

func combinedRange(tables []*tableHandle) (lo, hi string) {
	lo, hi = tables[0].first, tables[0].last
	for _, t := range tables[1:] {
		if t.first < lo {
			lo = t.first
		}
		if t.last > hi {
			hi = t.last
		}
	}
	return lo, hi
}

// overlappingRun returns the tables of a sorted, disjoint level whose
// ranges intersect [lo, hi] — always a contiguous run.
func overlappingRun(level []*tableHandle, lo, hi string) []*tableHandle {
	i := sort.Search(len(level), func(k int) bool { return level[k].last >= lo })
	j := i
	for j < len(level) && level[j].first <= hi {
		j++
	}
	return level[i:j]
}

// gcSafeLocked reports whether the inputs cover every table that could
// hold cells in [lo, hi]: only then may the merge collect tombstones,
// because a tombstone dropped while an older copy of its key survives
// in a table outside the job would resurrect that copy. Caller holds
// mu.
func (s *shard) gcSafeLocked(inputs []*tableHandle, lo, hi string) bool {
	in := map[*tableHandle]bool{}
	for _, t := range inputs {
		in[t] = true
	}
	for _, lvl := range s.levels {
		for _, t := range lvl {
			if !in[t] && t.overlaps(lo, hi) {
				return false
			}
		}
	}
	return true
}

// needsCompactionLocked is the cheap trigger check behind compactReq:
// L0 over its table-count threshold, or any budgeted level over its
// byte budget. Caller holds mu.
func (s *shard) needsCompactionLocked() bool {
	if len(s.levels) == 0 {
		return false
	}
	if len(s.levels[0]) > s.eng.opts.CompactAfter {
		return true
	}
	for n := 1; n < len(s.levels) && n < maxLevels-1; n++ {
		if levelBytes(s.levels[n]) > s.levelBudget(n) {
			return true
		}
	}
	return false
}

// nextJobLocked picks the shard's next background job, or nil when
// there is none, in priority order: flush the oldest frozen memtable,
// then serve the oldest request, then leveled maintenance
// (pickLeveledLocked). A request with no tables to merge is settled on
// the spot. Only the worker pops the frozen and request queues, so the
// head a job takes is still the head when the runner settles it — later
// freezes and requests append behind it. compactReq stays set while
// pickLeveledLocked finds work. Caller holds mu.
func (s *shard) nextJobLocked() *job {
	if len(s.frozen) > 0 {
		return &job{kind: jobFlush, mem: s.frozen[0]}
	}
	for len(s.requests) > 0 {
		r := s.requests[0]
		if inputs := s.allTablesLocked(); len(inputs) > 1 || (len(inputs) == 1 && r.kind == jobPurge) {
			return &job{kind: r.kind, req: r, inputs: inputs, dst: s.deepestDstLocked(), gcOK: true}
		}
		s.requests = s.requests[1:]
		s.settleLocked(&r.ticket, 0, nil)
	}
	if s.compactReq {
		if j := s.pickLeveledLocked(); j != nil {
			return j
		}
		s.compactReq = false
	}
	return nil
}

// pickLeveledLocked chooses the next leveled-maintenance job, or nil
// when the tree is within budget. Priority order:
//
//  1. L0 overflow: merge all of L0 with the overlapping run of L1.
//     L0 tables interleave arbitrarily, so they always merge together.
//  2. Budget overflow at level n: push one table (round-robin cursor,
//     so successive picks rotate through the key space) down into the
//     overlapping run of level n+1. With no overlap the job degrades
//     to a free relink — the table changes level without being
//     rewritten, sidestepping the write amplification entirely.
//
// Caller holds mu.
func (s *shard) pickLeveledLocked() *job {
	if len(s.levels) == 0 {
		return nil
	}
	if l0 := s.levels[0]; len(l0) > s.eng.opts.CompactAfter {
		lo, hi := combinedRange(l0)
		var older []*tableHandle
		if len(s.levels) > 1 {
			older = overlappingRun(s.levels[1], lo, hi)
		}
		inputs := append(append([]*tableHandle(nil), older...), l0...)
		jlo, jhi := combinedRange(inputs)
		return &job{kind: jobLeveled, inputs: inputs, dst: 1, gcOK: s.gcSafeLocked(inputs, jlo, jhi)}
	}
	for n := 1; n < len(s.levels) && n < maxLevels-1; n++ {
		if levelBytes(s.levels[n]) <= s.levelBudget(n) {
			continue
		}
		for len(s.compactCur) <= n {
			s.compactCur = append(s.compactCur, 0)
		}
		src := s.levels[n][s.compactCur[n]%len(s.levels[n])]
		s.compactCur[n]++
		var older []*tableHandle
		if n+1 < len(s.levels) {
			older = overlappingRun(s.levels[n+1], src.first, src.last)
		}
		if len(older) == 0 {
			return &job{kind: jobRelink, inputs: []*tableHandle{src}, dst: n + 1}
		}
		inputs := append(append([]*tableHandle(nil), older...), src)
		lo, hi := combinedRange(inputs)
		return &job{kind: jobLeveled, inputs: inputs, dst: n + 1, gcOK: s.gcSafeLocked(inputs, lo, hi)}
	}
	return nil
}

// deepestDstLocked is the landing level for whole-shard merges (major
// compaction, purge): the deepest level currently holding data, but at
// least 1 so L0 stays the exclusive flush zone.
func (s *shard) deepestDstLocked() int {
	dst := len(s.levels) - 1
	if dst < 1 {
		dst = 1
	}
	if dst >= maxLevels {
		dst = maxLevels - 1
	}
	return dst
}

// installLocked swaps a job's input tables for its outputs at level dst
// and commits the new layout to the manifest; a flush also pops its
// memtable off the frozen queue. On manifest failure the in-memory
// layout is rolled back and the error returned; the caller disposes of
// the outputs and retries. Level slices are rebuilt fresh — published
// views hold their own flattened copy, never these slices. Caller
// holds mu.
func (s *shard) installLocked(j *job, outs []*tableHandle) error {
	in := map[*tableHandle]bool{}
	for _, t := range j.inputs {
		in[t] = true
	}
	old := s.levels
	levels := make([][]*tableHandle, len(s.levels))
	for n, lvl := range s.levels {
		kept := make([]*tableHandle, 0, len(lvl))
		for _, t := range lvl {
			if !in[t] {
				kept = append(kept, t)
			}
		}
		levels[n] = kept
	}
	for len(levels) <= j.dst {
		levels = append(levels, nil)
	}
	merged := append(append([]*tableHandle(nil), levels[j.dst]...), outs...)
	if j.dst >= 1 {
		sort.Slice(merged, func(a, b int) bool { return merged[a].first < merged[b].first })
	}
	levels[j.dst] = merged
	for len(levels) > 1 && len(levels[len(levels)-1]) == 0 {
		levels = levels[:len(levels)-1]
	}
	s.levels = levels
	if err := s.writeManifestLocked(); err != nil {
		s.levels = old
		return err
	}
	if j.mem != nil {
		// Copy on pop: the published views share the old array, and
		// slicing past the head would keep the flushed memtable reachable
		// from it for as long as the array lives.
		s.frozen = append([]*frozenMem(nil), s.frozen[1:]...)
	}
	return nil
}

// --- worker ------------------------------------------------------------------

// worker is the shard's background goroutine: it takes one job at a
// time from nextJobLocked and runs it — flushes frozen memtables,
// serves requests, maintains the level tree — without blocking the write
// path. On closing it drains what is queued, then exits.
//
// Flush, Compact and DeleteRange wait on tickets, one per call and
// shard. A frozen memtable carries the ticket of a Flush waiting on it,
// a request its own. The runner settles the ticket once the job's result
// is live and its leftovers retired, with the job's count. A failed
// request is dequeued and settled with its error, so a retry is a new
// request; a failed flush settles every ticket at the shard, since
// nothing queued can run before it. A fence redo settles nothing. Close
// settles what is left with errClosed.
func (s *shard) worker() {
	defer s.eng.wg.Done()
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.abandoned {
		j := s.nextJobLocked()
		if j == nil {
			if s.closing {
				return
			}
			// Requests settled without work: wake the drain waiters.
			s.cond.Broadcast()
			s.cond.Wait()
			continue
		}
		if !s.runLocked(j) {
			return
		}
	}
}

// runLocked runs one job: merge its sources outside the lock, recheck
// abandonment and the fence generation, install the outputs, publish,
// and settle the job's kind. It stays busy while it retires the flushed
// WAL segments or the merged input tables, and settles the job's ticket
// after that, so Flush and Compact callers observe the final on-disk
// state (barring in-flight readers, which unlink retired tables as they
// finish). A failure leaves every source as it was — the frozen memtable
// and its WAL segments keep serving reads and recovery, the input tables
// stay listed — and settles tickets as the worker comment says. A failed
// flush or leveled job is recorded in flushErr and retried on the next
// signal. Called and returns holding mu; false means the worker must
// exit.
func (s *shard) runLocked(j *job) bool {
	seq := s.sstSeq
	var outs []*sstable.Reader
	var err error
	if j.kind != jobRelink {
		var gcBelow uint64
		if j.gcOK {
			gcBelow = s.gcWatermarkLocked()
		}
		fences, fenceGen := s.eng.fenceSnapshot()
		s.busy = true
		s.mu.Unlock()
		outs, err = s.mergeTables(j, seq, gcBelow, fencedFn(fences))
		s.mu.Lock()
		s.busy = false
		if s.abandoned {
			discardTables(outs)
			s.cond.Broadcast()
			return false
		}
		if err == nil && (j.kind == jobPurge || j.gced > 0) && s.eng.fenceGen.Load() != fenceGen {
			// A migration fence opened while this merge ran: it may have
			// collected tombstones the fence now protects. Discard the
			// result and redo with the fresh fence set; the job's queue head
			// or compactReq is still in place. A merge with zero collections
			// is byte-equivalent to a fence-honoring one, so it installs —
			// but a purge's collections inside the partitions it dropped are
			// not counted in gced, so a purge always redoes.
			discardTables(outs)
			return true
		}
	}
	var handles []*tableHandle
	if j.kind == jobRelink {
		handles = j.inputs // the table is its own output
	}
	for _, r := range outs {
		h, herr := newTableHandle(r)
		if herr != nil {
			err = herr
			break
		}
		handles = append(handles, h)
	}
	if err == nil {
		err = s.installLocked(j, handles)
	}
	if err != nil {
		discardTables(outs)
		if j.req != nil {
			s.requests = s.requests[1:]
			s.settleLocked(&j.req.ticket, 0, err)
		} else {
			s.flushErr = err
			if j.kind == jobFlush {
				s.failQueuedLocked(err)
			}
		}
		s.cond.Broadcast()
		if s.closing {
			return false
		}
		// Retry on the next signal, not in a hot loop — unless a failed
		// leveled job has work queued ahead of it, whose broadcast may
		// have come while it ran.
		if j.kind == jobFlush || len(s.frozen)+len(s.requests) == 0 {
			s.cond.Wait()
		}
		return true
	}
	s.sstSeq = seq + len(outs)
	s.publishLocked()
	s.flushErr = nil
	switch j.kind {
	case jobFlush:
		s.eng.Metrics.Flushes.Add(1)
		s.eng.Metrics.FlushedBytes.Add(j.mem.mem.Bytes())
	case jobPurge, jobMajor, jobLeveled:
		s.eng.Metrics.CompactionBytesIn.Add(levelBytes(j.inputs))
		s.eng.Metrics.CompactionBytesOut.Add(j.bytesOut)
		// A purge removes partitions and a compaction can collapse
		// tombstone-only ones out of existence: invalidate the engine's
		// merged partition index. Bumped after the swap is published so an
		// index builder that loaded the old generation can never enumerate
		// the new view under it unnoticed.
		s.partGen.Add(1)
		if j.kind == jobPurge {
			s.eng.Metrics.RangePurges.Add(1)
		} else {
			s.eng.Metrics.Compactions.Add(1)
			s.eng.Metrics.TombstonesGCed.Add(j.gced)
		}
	}
	// A flush or a leveled step may leave the tree over budget; a purge
	// or a major compaction leaves one run, which the next flush checks.
	if j.kind != jobPurge && j.kind != jobMajor && s.needsCompactionLocked() {
		s.compactReq = true
	}
	// Stay busy while the leftovers are retired; readers already see the
	// new tables.
	s.busy = true
	s.cond.Broadcast()
	s.mu.Unlock()
	switch j.kind {
	case jobFlush:
		// The cells are live in the table; their WAL segments are done.
		for _, p := range j.mem.walPaths {
			os.Remove(p)
		}
	case jobPurge, jobMajor, jobLeveled:
		for _, t := range j.inputs {
			t.drop.Store(true)
			t.release()
		}
	}
	s.mu.Lock()
	s.busy = false
	if j.req != nil {
		s.requests = s.requests[1:]
		s.settleLocked(&j.req.ticket, j.dropped, nil)
	} else if j.kind == jobFlush {
		s.settleLocked(j.mem.t, 0, nil)
	}
	s.cond.Broadcast()
	return true
}

// createTable starts the table that sealTable turns into
// sst-sNN-<seq>.db. It is built under a .tmp name and renamed into place
// only when complete, so a crash or an error never leaves a half-written
// table where Open would load it.
func (s *shard) createTable(seq, partitions int) (*sstable.Writer, error) {
	return sstable.NewWriter(s.sstPath(seq)+".tmp", sstable.WriterOptions{
		ColumnIndexSize:    s.eng.opts.ColumnIndexSize,
		ExpectedPartitions: partitions,
	})
}

// sealTable is the one way a job's output becomes a table: close the
// writer, count its block bytes, rename it into place and open it. A
// failure at any step leaves nothing of it on disk — without the reader
// the table must not exist, so the WAL segments or the compaction
// inputs keep covering its data.
func (s *shard) sealTable(w *sstable.Writer, seq int) (*sstable.Reader, error) {
	path := s.sstPath(seq)
	tmp := path + ".tmp"
	if err := w.Close(); err != nil {
		os.Remove(tmp)
		return nil, err
	}
	logical, stored := w.BlockBytes()
	s.eng.Metrics.BlockBytesLogical.Add(logical)
	s.eng.Metrics.BlockBytesStored.Add(stored)
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return nil, err
	}
	r, err := s.eng.openTable(path)
	if err != nil {
		os.Remove(path)
		return nil, err
	}
	return r, nil
}

// discardTables closes and deletes tables a job wrote but did not
// install.
func discardTables(outs []*sstable.Reader) {
	for _, r := range outs {
		r.Close()
		os.Remove(r.Path())
	}
}

// gcWatermarkLocked returns the version sequence below which this
// shard's tombstones may be garbage-collected by a compaction over all
// tables holding their keys: the lowest version any unflushed memtable
// (active or frozen) might still hold. A tombstone older than that
// bound cannot be masking anything outside the compaction inputs — the
// inputs cover every overlapping table (gcSafeLocked), and every
// memtable cell is provably newer — so dropping it (and everything it
// shadowed, which the merge already did) is safe. A tombstone at or
// above the bound is kept: an older shadowed copy may sit in a memtable
// (a rebalance stream page, a read-repair) and will only be masked if
// the tombstone is still there when it flushes. Caller holds mu.
func (s *shard) gcWatermarkLocked() uint64 {
	wm := uint64(math.MaxUint64)
	if v, ok := s.mem.MinVersion(); ok && v.Seq < wm {
		wm = v.Seq
	}
	for _, fm := range s.frozen {
		if v, ok := fm.mem.MinVersion(); ok && v.Seq < wm {
			wm = v.Seq
		}
	}
	return wm
}

// mergeTables is the runner's one write step: it streams the job's
// sources — the frozen memtable of a flush, or the input tables oldest
// first — through one mergeCursor into one or more output tables. Each
// source is read once, sequentially, by a whole-memtable or whole-table
// scan, so the merge runs over internal keys — by partition, then
// clustering key — under the read path's rule: shadowed versions drop
// out, an exact version tie goes to the newer input, tombstones come
// through. The consumer splits the merged stream where the partition
// prefix changes and, per partition, drops it whole when the job's
// purge covers it (counting the live cells that removed), or else
// collects the tombstones whose version sequence is below gcBelow —
// except in partitions the fenced predicate covers, whose tombstones
// are kept because a migration or repair may still stream older copies
// in behind them. A flush has no purge and a zero gcBelow. Outputs
// below L0 rotate at TargetTableBytes on partition boundaries so deep
// levels stay range-partitioned into bounded-size tables; a flush
// writes one L0 table. Called without the lock; the sources stay
// readable throughout.
func (s *shard) mergeTables(j *job, startSeq int, gcBelow uint64, fenced func(pk string) bool) (outs []*sstable.Reader, err error) {
	if gate := s.eng.testFlushGate; gate != nil {
		<-gate
	}
	if hook := s.eng.testFlushErr.Load(); hook != nil {
		if err := (*hook)(s.id, j.kind); err != nil {
			return nil, err
		}
	}
	if s.isAbandoned() {
		return nil, errClosed
	}
	var w *sstable.Writer
	fail := func(e error) ([]*sstable.Reader, error) {
		if w != nil {
			w.Close()
			os.Remove(s.sstPath(startSeq+len(outs)) + ".tmp")
		}
		discardTables(outs)
		return nil, e
	}

	mc := mergeCursors.Get().(*mergeCursor)
	defer mc.close()
	expectParts := 0
	if j.mem != nil {
		j.mem.mem.Scan(&mc.add(false).mem)
		expectParts = len(j.mem.mem.Partitions())
	}
	for _, t := range j.inputs {
		if err := t.Scan(&mc.add(true).tbl); err != nil {
			return fail(err)
		}
		expectParts += t.NumPartitions()
	}
	if err := mc.start(); err != nil {
		return fail(err)
	}

	var (
		part             row.Collector // the open partition's kept cells
		pk               string
		prefix           []byte // pk's internal-key prefix
		dropPart, gcPart bool
		wBytes           int64
	)
	seal := func() error {
		r, err := s.sealTable(w, startSeq+len(outs))
		w, wBytes = nil, 0
		if err != nil {
			return err
		}
		j.bytesOut += r.Size()
		outs = append(outs, r)
		return nil
	}
	// emit writes the open partition, unless nothing of it was kept.
	emit := func() error {
		if len(part.Cells) == 0 {
			return nil
		}
		if w == nil {
			var err error
			if w, err = s.createTable(startSeq+len(outs), expectParts); err != nil {
				return err
			}
		}
		if err := w.AddPartition(pk, part.Cells); err != nil {
			return err
		}
		for _, c := range part.Cells {
			wBytes += int64(len(c.CK) + len(c.Value) + 16)
		}
		if j.dst >= 1 && wBytes >= s.eng.opts.TargetTableBytes {
			return seal()
		}
		return nil
	}
	for mc.Next() {
		ik, value, ver, tomb := mc.Cell()
		if len(prefix) == 0 || !bytes.HasPrefix(ik, prefix) {
			if err := emit(); err != nil {
				return fail(err)
			}
			part.Reset()
			var ck []byte
			var err error
			if pk, ck, err = enc.DecodeInternalKey(ik); err != nil {
				return fail(fmt.Errorf("%w: %w", sstable.ErrCorrupt, err))
			}
			prefix = append(prefix[:0], ik[:len(ik)-len(ck)]...)
			dropPart = j.kind == jobPurge && j.req.covers(pk)
			// The merge already dropped everything a tombstone shadowed
			// within the inputs, and the watermark guarantees nothing older
			// is still waiting to flush locally. A partition under a
			// migration fence keeps them all: an in-flight stream may still
			// deliver a sub-watermark copy that only the tombstone masks.
			gcPart = gcBelow > 0 && (fenced == nil || !fenced(pk))
		}
		switch {
		case dropPart:
			if !tomb {
				j.dropped++
			}
		case gcPart && tomb && ver.Seq < gcBelow:
			j.gced++
		default:
			part.Append(ik[len(prefix):], value, ver, tomb)
		}
	}
	if err := mc.Err(); err != nil {
		return fail(err)
	}
	if err := emit(); err != nil {
		return fail(err)
	}
	if w != nil {
		if err := seal(); err != nil {
			return fail(err)
		}
	}
	return outs, nil
}

func (s *shard) isAbandoned() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.abandoned
}

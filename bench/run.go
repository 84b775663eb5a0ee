package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"scalekv/internal/cluster"
)

// do runs one point or scan op through a cluster client and checks the
// answer. A put's value is generated by the caller, outside the timing.
// It returns the cells the op moved.
func (b *bed) do(c *cluster.Client, o op, val []byte) (int, error) {
	pk := b.ks.pks[o.pk]
	switch o.kind {
	case opPut:
		return 1, c.Put(pk, b.ks.cks[o.ck], val)
	case opGet:
		v, found, err := c.Get(pk, b.ks.cks[o.ck])
		if err != nil {
			return 0, err
		}
		return 1, b.ks.verifyGet(v, found, o.pk, o.ck)
	case opScan:
		cells, err := c.Scan(pk, nil, nil)
		if err != nil {
			return 0, err
		}
		return len(cells), b.ks.verifyScan(cells, o.pk)
	}
	return 0, fmt.Errorf("op kind %v has no point path", o.kind)
}

// countQuery is one CountAll fan-out: the partitions asked for and the
// totals a correct store must return for them.
type countQuery struct {
	pks      []string
	idx      []int // partition index of each pk
	elements uint64
	counts   [4]uint64
}

func (b *bed) nextCountQuery(s *stream) countQuery {
	q := countQuery{pks: make([]string, countAllWidth), idx: make([]int, countAllWidth)}
	for i := range q.pks {
		pk := s.next().pk
		q.pks[i], q.idx[i] = b.ks.pks[pk], pk
		for ck := range b.ks.cks {
			q.counts[cellType(pk, ck)]++
		}
	}
	q.elements = uint64(countAllWidth * len(b.ks.cks))
	return q
}

func (q *countQuery) check(res *cluster.MasterResult) error {
	if res.Errors != 0 {
		return fmt.Errorf("CountAll: %d of %d requests failed", res.Errors, len(q.pks))
	}
	if res.Elements != q.elements {
		return fmt.Errorf("CountAll counted %d cells, want %d", res.Elements, q.elements)
	}
	for ty, want := range q.counts {
		if got := res.Counts[uint8(ty)]; got != want {
			return fmt.Errorf("CountAll counted %d cells of type %d, want %d", got, ty, want)
		}
	}
	return nil
}

// tally is what one closed-loop client measured.
type tally struct {
	h                 hist
	attempted, failed uint64 // whole run, warm-up included
	ops, reads, cells uint64 // inside the measured window
	firstErr          error
}

func (t *tally) add(o *tally) {
	t.h.merge(&o.h)
	t.attempted += o.attempted
	t.failed += o.failed
	t.ops += o.ops
	t.reads += o.reads
	t.cells += o.cells
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

func (t *tally) note(units uint64, err error) {
	t.attempted += units
	if err != nil {
		t.failed += units
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

// timed runs one unit of closed-loop work unless the window is over,
// and reports whether it ran. Work that starts before from is warm-up:
// run and verified, not timed.
func (t *tally) timed(from, to time.Time, units, reads uint64, run func() (cells uint64, err error)) bool {
	t0 := time.Now()
	if !t0.Before(to) {
		return false
	}
	cells, err := run()
	d := time.Since(t0)
	t.note(units, err)
	if !t0.Before(from) {
		t.h.record(d)
		t.ops += units
		t.reads += reads
		t.cells += cells
	}
	return true
}

// loop is one closed-loop client: it sends its next op only after the
// last one answered, until the window ends. Ops and values are generated
// before the clock starts. On countall-tcp an op is one partition
// counted and the latency is the query's.
func (b *bed) loop(client uint64, from, to time.Time, t *tally) {
	c := b.cl.Client()
	s := newStream(b.ks, b.sp.read, b.sp.readPct, client)
	putBytes := uint64(b.sp.cellBytes() * b.sp.rf)
	var val []byte
	for more := true; more; {
		if b.sp.read == opCount {
			q := b.nextCountQuery(s)
			more = t.timed(from, to, countAllWidth, countAllWidth, func() (uint64, error) {
				res, err := c.CountAll(q.pks, cluster.MasterOptions{})
				if err != nil {
					return 0, err
				}
				return q.elements, q.check(res)
			})
			continue
		}
		o := s.next()
		reads := uint64(1)
		if o.kind == opPut {
			val, reads = b.ks.value(val, o.pk, o.ck, o.version), 0
		}
		more = t.timed(from, to, 1, reads, func() (uint64, error) {
			cells, err := b.do(c, o, val)
			return uint64(cells), err
		})
		if more && o.kind == opPut {
			b.userBytes.Add(putBytes)
		}
	}
}

// windowResult is one measured window: what the clients saw and the
// counter snapshots around and inside it.
type windowResult struct {
	tally
	seconds            float64
	before, mid, after counters
	frozenMax          int
}

// window runs the workload's clients through a warm-up and a measured
// window. A 10 Hz sampler watches the frozen-memtable backlog and takes
// the mid-window snapshot; it reads counters only.
func (b *bed) window(warmup, measure time.Duration) *windowResult {
	from := time.Now().Add(warmup)
	to := from.Add(measure)
	tallies := make([]tally, b.sp.clients)
	var wg sync.WaitGroup
	for i := range tallies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.loop(uint64(i), from, to, &tallies[i])
		}()
	}

	w := &windowResult{seconds: measure.Seconds()}
	time.Sleep(time.Until(from))
	w.before = b.snapshot(true)
	tick := time.NewTicker(100 * time.Millisecond)
	midAt := from.Add(measure / 2)
	for now := range tick.C {
		if !now.Before(to) {
			break
		}
		s := b.snapshot(false)
		w.frozenMax = max(w.frozenMax, s.frozen)
		if w.mid.at.IsZero() && !now.Before(midAt) {
			w.mid = s
		}
	}
	tick.Stop()
	wg.Wait()
	w.after = b.snapshot(true)
	if w.mid.at.IsZero() {
		w.mid = w.after
	}
	for i := range tallies {
		w.add(&tallies[i])
	}
	return w
}

// metric is one named number with its unit.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// endToEnd is what a user of the store sees. setup_s is added by the
// caller, which timed the set-ups.
func (w *windowResult) endToEnd() []metric {
	return []metric{
		{"ops_per_s", float64(w.ops) / w.seconds, "1/s"},
		{"p50_us", us(w.h.percentile(50)), "us"},
		{"p99_us", us(w.h.percentile(99)), "us"},
	}
}

func writeAmp(a, b counters) float64 {
	return ratio(float64(b.flushedBytes-a.flushedBytes+b.compactionOut-a.compactionOut), float64(b.userBytes-a.userBytes))
}

// minNodeCompactions is the fewest compactions any node finished
// between two snapshots.
func minNodeCompactions(a, b counters) int64 {
	least := int64(math.MaxInt64)
	for i := range a.nodeCompactions {
		least = min(least, b.nodeCompactions[i]-a.nodeCompactions[i])
	}
	return least
}

// layers is the part of the ledger read from counter deltas around the
// window: storage, sstable and process.
func (w *windowResult) layers(sp *spec) []metric {
	a, z := w.before, w.after
	ops := float64(w.ops)
	wall := z.at.Sub(a.at)
	cpu := z.cpu - a.cpu
	live := float64(sp.partitions * sp.cells * sp.cellBytes() * sp.rf)
	return []metric{
		{"storage.write_amp", writeAmp(a, z), "ratio"},
		{"storage.space_amp", ratio(float64(z.sstableBytes), live), "ratio"},
		{"storage.flushes", float64(z.flushes - a.flushes), "count"},
		{"storage.compactions", float64(z.compactions - a.compactions), "count"},
		{"storage.frozen_memtables_max", float64(w.frozenMax), "count"},
		{"sstable.cache_hit_ratio", hitRatio(a, z), "ratio"},
		{"sstable.cache_misses_per_read", ratio(float64(z.misses-a.misses), float64(w.reads)), "1/op"},
		{"sstable.cache_evictions", float64(z.evictions - a.evictions), "count"},
		{"sstable.compression_ratio", ratio(float64(z.blockStored), float64(z.blockLogical)), "ratio"},
		{"process.cpu_us_per_op", ratio(us(cpu), ops), "us/op"},
		{"process.cpu_busy_share", ratio(float64(cpu), float64(wall)*float64(runtime.GOMAXPROCS(0))), "ratio"},
		{"process.allocs_per_op", ratio(float64(z.mallocs-a.mallocs), ops), "1/op"},
		{"process.gc_pause_ms", float64(z.gcPause-a.gcPause) / float64(time.Millisecond), "ms"},
		{"process.peak_rss_mb", float64(z.maxRSSKB) / 1024, "MB"},
		{"cluster.failovers", float64(z.failovers), "count"},
	}
}

// validity enforces the workload's guards on a window; each broken one
// is returned as a sentence.
func (w *windowResult) validity(sp *spec) []string {
	var broken []string
	g := sp.guards
	if w.after.failovers != 0 {
		broken = append(broken, fmt.Sprintf("cluster.failovers = %d, want 0: the run saw a degraded cluster", w.after.failovers))
	}
	if g.maxHit > 0 {
		if hit := hitRatio(w.before, w.after); hit < g.minHit || hit > g.maxHit {
			broken = append(broken, fmt.Sprintf("block-cache hit ratio %.3f outside [%.2f, %.2f]", hit, g.minHit, g.maxHit))
		}
	}
	if g.minCompactions > 0 {
		if n := minNodeCompactions(w.before, w.after); n < g.minCompactions {
			broken = append(broken, fmt.Sprintf("a node finished %d compactions in the window, want >= %d", n, g.minCompactions))
		}
	}
	if g.ampHalvesTol > 0 {
		first, second := writeAmp(w.before, w.mid), writeAmp(w.mid, w.after)
		if math.Abs(first-second) > g.ampHalvesTol*(first+second)/2 {
			broken = append(broken, fmt.Sprintf("storage.write_amp %.3f in the first half, %.3f in the second: not level within %.0f %%", first, second, 100*g.ampHalvesTol))
		}
	}
	return broken
}

package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"scalekv/internal/cluster"
	"scalekv/internal/stages"
	"scalekv/internal/transport"
	"scalekv/internal/wire"
)

// Serial-pass sizes. One client and no timers: for a seed the op
// sequence, and so the span count, is fixed, and the block-cache counts
// repeat as long as nothing is evicted (table IDs, which place blocks in
// cache shards, are handed out by concurrent flushers).
const (
	serialOps      = 20_000 // per path
	serialChunks   = 10     // the paths take turns this many times
	microOps       = 4_000
	pipelineFrames = 50_000
	serialClient   = 100 // stream IDs apart from the window's clients
	microClient    = 101
)

// serialList is a stretch of the serial op stream.
type serialList struct {
	ops     []op
	queries []countQuery
}

func (l *serialList) units() int { return len(l.ops) + len(l.queries)*countAllWidth }

// serialList draws the next n ops (for CountAll, the next n/256
// queries, at least one) from the serial stream.
func (b *bed) serialList(s *stream, n int) *serialList {
	l := &serialList{}
	if b.sp.read == opCount {
		for range max(n/countAllWidth, 1) {
			l.queries = append(l.queries, b.nextCountQuery(s))
		}
		return l
	}
	for range n {
		l.ops = append(l.ops, s.next())
	}
	return l
}

// pass accumulates one path's serial time over its turns.
type pass struct {
	elapsed time.Duration
	units   int
}

func (p *pass) perOp() float64 { return float64(p.elapsed) / float64(p.units) }

// replay runs the list through one path, one op at a time, and adds the
// wall time to p. Value generation and verification sit inside it on
// every path alike, so they cancel in the differences the ledger takes.
// Op IDs continue from the units p has already seen.
func (b *bed) replay(t *tally, p *pass, l *serialList, point func(id int, o op, val []byte) (int, error), count func(firstID int, q *countQuery) error) {
	var val []byte
	start := time.Now()
	for i, o := range l.ops {
		if o.kind == opPut {
			val = b.ks.value(val, o.pk, o.ck, o.version)
		}
		_, err := point(p.units+i, o, val)
		t.note(1, err)
	}
	for i := range l.queries {
		t.note(countAllWidth, count(p.units+i*countAllWidth, &l.queries[i]))
	}
	p.elapsed += time.Since(start)
	p.units += l.units()
}

// ledgerResult is the traced part of the ledger.
type ledgerResult struct {
	tally
	metrics []metric
	table   string // self time per span name, for people
}

// ledger runs the serial passes and the single-layer measurements.
//
// One seeded stream feeds three paths, all driven by one client:
//
//   - traced: the hand-assembled path with spans on — wire.*,
//     transport.rtt_self_ns and the self-time table come from these;
//   - untraced: the same path with spans off — traced minus untraced
//     is what tracing costs, and untraced is the base of
//     cluster.self_ns;
//   - cluster: the real cluster.Client.
//
// After a priming stretch that brings the block cache to its steady
// state, the paths take turns on successive stretches of the stream, so
// each sees the same key distribution and cache state and any drift of
// the box falls on all three alike. A path never sees a key sequence
// another path just warmed, which on the cold workload would flatter
// whichever ran second.
//
// Then each layer alone: codec allocations, pipelined frames, direct
// engine calls, and RF=2 against RF=1 puts on two fresh empty clusters.
func (b *bed) ledger(n int, outDir, scratch string) (*ledgerResult, error) {
	h, err := newHandPath(b)
	if err != nil {
		return nil, fmt.Errorf("hand-assembled path: %w", err)
	}
	defer h.close()
	res := &ledgerResult{}
	s := newStream(b.ks, b.sp.read, b.sp.readPct, serialClient)
	client := b.cl.Client()
	var stageSum [4]time.Duration
	var stageN int

	hand := func(tr *tracer, p *pass, l *serialList) {
		h.tr.Store(tr)
		b.replay(&res.tally, p, l,
			func(id int, o op, val []byte) (int, error) { return h.do(tr, id, o, val) },
			func(first int, q *countQuery) error { return h.countAll(tr, first, q) })
	}
	viaClient := func(p *pass, l *serialList) {
		b.replay(&res.tally, p, l,
			func(_ int, o op, val []byte) (int, error) { return b.do(client, o, val) },
			func(_ int, q *countQuery) error {
				r, err := client.CountAll(q.pks, cluster.MasterOptions{})
				if err != nil {
					return err
				}
				for _, sp := range r.Trace.Spans() {
					stageSum[sp.Stage] += sp.Duration()
				}
				stageN += len(q.pks)
				return q.check(r)
			})
	}

	hand(nil, &pass{}, b.serialList(s, n))
	tr := &tracer{t0: time.Now(), spans: make([]span, 0, (n+countAllWidth)*spansPerOp)}
	var traced, untraced, clustered pass
	var hits, misses int64
	for range serialChunks {
		c0 := b.snapshot(false)
		hand(tr, &traced, b.serialList(s, n/serialChunks))
		c1 := b.snapshot(false)
		hits += c1.hits - c0.hits
		misses += c1.misses - c0.misses
		hand(nil, &untraced, b.serialList(s, n/serialChunks))
		viaClient(&clustered, b.serialList(s, n/serialChunks))
	}

	self, total := selfTimes(tr.spans)
	units := float64(traced.units)
	perOp := func(ns int64) float64 { return float64(ns) / units }
	res.metrics = []metric{
		{"wire.encode_ns", perOp(total["wire.encode"]), "ns"},
		{"wire.decode_ns", perOp(total["wire.decode"]), "ns"},
		{"wire.bytes_per_op", float64(h.wireBytes) / units, "B/op"},
		{"wire.allocs_per_op", codecAllocs(h.samples), "1/op"},
		{"transport.rtt_self_ns", perOp(self["transport.call"]), "ns"},
		{"cluster.self_ns", clustered.perOp() - untraced.perOp(), "ns"},
		{"trace.overhead_ns", traced.perOp() - untraced.perOp(), "ns"},
		{"trace.spans", float64(len(tr.spans)), "count"},
		{"trace.cache_hits", float64(hits), "count"},
		{"trace.cache_misses", float64(misses), "count"},
	}

	var tbl strings.Builder
	fmt.Fprintf(&tbl, "  serial passes of %d ops each: traced %.1f us/op, untraced %.1f us/op, cluster.Client %.1f us/op\n",
		traced.units, traced.perOp()/1e3, untraced.perOp()/1e3, clustered.perOp()/1e3)
	fmt.Fprintf(&tbl, "  %-18s %12s %12s\n", "span", "self ns/op", "total ns/op")
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	layerSelf := map[string]int64{}
	for _, name := range names {
		fmt.Fprintf(&tbl, "  %-18s %12.0f %12.0f\n", name, perOp(self[name]), perOp(total[name]))
		layerSelf[layerOf(name)] += self[name]
	}
	// bench.* spans only frame the others: adjacent spans share their
	// boundary clock reads, so a frame's self time is 0 by construction.
	for _, layer := range []string{"wire", "transport", "storage"} {
		fmt.Fprintf(&tbl, "  layer %-12s %12.0f\n", layer, perOp(layerSelf[layer]))
	}
	if stageN > 0 {
		fmt.Fprintf(&tbl, "  paper stages of cluster.Client.CountAll, mean us per request:")
		for _, st := range stages.Stages() {
			fmt.Fprintf(&tbl, " %s %.1f", st, us(stageSum[st])/float64(stageN))
		}
		tbl.WriteByte('\n')
	}
	res.table = tbl.String()

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	if err := writeSpans(filepath.Join(outDir, "trace-"+b.sp.name+".jsonl"), tr.spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}

	frames, err := pipelined(b.sp.tcp, h.samples, min(pipelineFrames, 10*n))
	if err != nil {
		return nil, fmt.Errorf("pipelined frames: %w", err)
	}
	res.metrics = append(res.metrics, metric{"transport.pipelined_frames_per_s", frames, "1/s"})
	res.metrics = append(res.metrics, b.engineAlone(&res.tally, min(microOps, n))...)
	fanout, err := b.replicaFanout(&res.tally, min(microOps, n), scratch)
	if err != nil {
		return nil, fmt.Errorf("replica fan-out: %w", err)
	}
	res.metrics = append(res.metrics, metric{"cluster.replica_fanout_ns", fanout, "ns"})
	return res, nil
}

// codecAllocs is FastCodec's heap allocations for one op's four codec
// calls, on the workload's own messages.
func codecAllocs(samples []wirePair) float64 {
	if len(samples) == 0 {
		return 0
	}
	var codec wire.FastCodec
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, s := range samples {
		for _, m := range []wire.Message{s.req, s.resp} {
			data, err := codec.Marshal(m)
			if err == nil {
				_, err = codec.Unmarshal(data)
			}
			if err != nil {
				return 0
			}
		}
	}
	runtime.ReadMemStats(&after)
	// The two-message slice of each iteration stays on the stack.
	return float64(after.Mallocs-before.Mallocs) / float64(len(samples))
}

// pipelined measures transport.Client.Go against an echo handler with
// countAllWidth frames in flight, on the workload's transport and with
// its own request payload: what pipelining alone sustains.
func pipelined(tcp bool, samples []wirePair, frames int) (float64, error) {
	if len(samples) == 0 {
		return 0, nil
	}
	payload, err := wire.FastCodec{}.Marshal(samples[0].req)
	if err != nil {
		return 0, err
	}
	l, dial, err := endpoint(tcp, transport.NewNetwork(), "bench-echo")
	if err != nil {
		return 0, err
	}
	srv := transport.Serve(l, func(p []byte) []byte { return p })
	defer srv.Close()
	conn, err := dial()
	if err != nil {
		return 0, err
	}
	c := transport.NewClient(conn)
	defer c.Close()

	var window [countAllWidth]<-chan []byte
	start := time.Now()
	for i := range frames + countAllWidth {
		slot := i % countAllWidth
		if i >= countAllWidth {
			if _, ok := <-window[slot]; !ok {
				return 0, fmt.Errorf("echo connection closed")
			}
		}
		if i < frames {
			if window[slot], err = c.Go(payload); err != nil {
				return 0, err
			}
		}
	}
	return float64(frames) / time.Since(start).Seconds(), nil
}

// engineAlone times direct storage.Engine calls on node 0 for keys node
// 0 owns: the engine with no wire, transport or cluster around it. All
// four ops are timed on every workload, whatever its mix.
func (b *bed) engineAlone(t *tally, n int) []metric {
	eng := b.cl.Nodes[0].Engine()
	ring := b.cl.Topology()
	s := newStream(b.ks, opGet, 100, microClient)
	owned := make([]op, 0, n)
	for len(owned) < n {
		if o := s.next(); ring.Primary(b.ks.pks[o.pk]) == b.cl.Nodes[0].ID() {
			owned = append(owned, o)
		}
	}
	mean := func(call func(o op) (time.Duration, error)) float64 {
		var sum time.Duration
		for _, o := range owned {
			d, err := call(o)
			t.note(1, err)
			sum += d
		}
		return float64(sum) / float64(n)
	}
	var val []byte
	get := mean(func(o op) (time.Duration, error) {
		t0 := time.Now()
		v, found, err := eng.Get(b.ks.pks[o.pk], b.ks.cks[o.ck])
		d := time.Since(t0)
		if err != nil {
			return d, err
		}
		return d, b.ks.verifyGet(v, found, o.pk, o.ck)
	})
	put := mean(func(o op) (time.Duration, error) {
		val = b.ks.value(val, o.pk, o.ck, uint64(microClient))
		t0 := time.Now()
		err := eng.Put(b.ks.pks[o.pk], b.ks.cks[o.ck], val)
		return time.Since(t0), err
	})
	scan := mean(func(o op) (time.Duration, error) {
		t0 := time.Now()
		cells, err := eng.ScanPartition(b.ks.pks[o.pk], nil, nil)
		d := time.Since(t0)
		if err != nil {
			return d, err
		}
		return d, b.ks.verifyScan(cells, o.pk)
	})
	count := mean(func(o op) (time.Duration, error) {
		elements := 0
		t0 := time.Now()
		err := eng.AggregatePartition(b.ks.pks[o.pk], func(_, _ []byte) { elements++ })
		d := time.Since(t0)
		if err == nil && elements != len(b.ks.cks) {
			err = fmt.Errorf("count of partition %d: %d cells, want %d", o.pk, elements, len(b.ks.cks))
		}
		return d, err
	})
	return []metric{
		{"storage.get_ns", get, "ns"},
		{"storage.put_ns", put, "ns"},
		{"storage.scan_ns", scan, "ns"},
		{"storage.count_ns", count, "ns"},
	}
}

// startCluster boots the workload's ring on its transport.
func startCluster(sp *spec, rf int, dir string) (*cluster.Cluster, error) {
	start := cluster.StartLocal
	if sp.tcp {
		start = cluster.StartTCP
	}
	return start(cluster.LocalOptions{Nodes: ringNodes, ReplicationFactor: rf, Storage: sp.storage, BaseDir: dir})
}

// replicaFanout is the mean serial Put at RF=2 minus the mean at RF=1,
// each on a fresh, empty ring of the workload's shape, so nothing but
// the replica fan-out differs.
func (b *bed) replicaFanout(t *tally, n int, scratch string) (float64, error) {
	s := newStream(b.ks, opGet, 100, microClient)
	meanPut := func(rf int) (time.Duration, error) {
		dir := filepath.Join(scratch, fmt.Sprintf("fanout-rf%d", rf))
		defer os.RemoveAll(dir)
		cl, err := startCluster(b.sp, rf, dir)
		if err != nil {
			return 0, err
		}
		defer cl.Close()
		var val []byte
		var sum time.Duration
		for range n {
			o := s.next()
			val = b.ks.value(val, o.pk, o.ck, uint64(microClient))
			t0 := time.Now()
			err := cl.Client().Put(b.ks.pks[o.pk], b.ks.cks[o.ck], val)
			sum += time.Since(t0)
			t.note(1, err)
		}
		return sum / time.Duration(n), nil
	}
	one, err := meanPut(1)
	if err != nil {
		return 0, err
	}
	two, err := meanPut(2)
	if err != nil {
		return 0, err
	}
	return float64(two - one), nil
}

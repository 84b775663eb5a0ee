package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestHistBucketErrorWithinOnePercent(t *testing.T) {
	// Up to 10 s a sample and the value reported for its bucket differ
	// by at most 1 %; below 128 ns buckets are exact.
	for v := int64(1); v <= int64(10*time.Second); v += v/7 + 1 {
		mid := bucketMid(bucketIndex(v))
		if err := math.Abs(float64(mid-v)) / float64(v); err > 0.01 {
			t.Fatalf("value %d ns reports as %d ns: relative error %.4f", v, mid, err)
		}
	}
	if got := bucketIndex(int64(time.Hour)); got != histBuckets-1 {
		t.Fatalf("an hour lands in bucket %d, want the last, %d", got, histBuckets-1)
	}
}

func TestHistPercentiles(t *testing.T) {
	var h hist
	for i := 1; i <= 100_000; i++ {
		h.record(time.Duration(i) * time.Microsecond)
	}
	for _, c := range []struct{ q, want float64 }{{50, 50_000}, {99, 99_000}, {100, 100_000}, {0, 1}} {
		got := us(h.percentile(c.q))
		if math.Abs(got-c.want)/c.want > 0.01 {
			t.Errorf("p%v = %.1f us, want %.1f within 1 %%", c.q, got, c.want)
		}
	}
	var empty, merged hist
	if empty.percentile(50) != 0 {
		t.Error("empty histogram must report 0")
	}
	merged.merge(&h)
	merged.merge(&h)
	if merged.count != 2*h.count || merged.percentile(50) != h.percentile(50) {
		t.Error("merging a histogram with itself must double the count and keep the median")
	}
}

func TestStreamIsSeeded(t *testing.T) {
	draw := func(seed, client uint64) []op {
		s := newStream(newKeyspace(seed, 1000, 4, 64), opGet, 50, client)
		ops := make([]op, 500)
		for i := range ops {
			ops[i] = s.next()
		}
		return ops
	}
	same := func(a, b []op) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	a := draw(7, 0)
	if !same(a, draw(7, 0)) {
		t.Error("same seed and client must give the same ops")
	}
	if same(a, draw(8, 0)) || same(a, draw(7, 1)) {
		t.Error("another seed or client must give other ops")
	}
	puts := 0
	versions := map[uint64]bool{}
	for _, o := range append(a, draw(7, 1)...) {
		if o.kind == opPut {
			puts++
			versions[o.version] = true
		}
	}
	if puts < 400 || puts > 600 {
		t.Errorf("%d puts of 1000 ops at 50 %% reads", puts)
	}
	if len(versions) != puts {
		t.Error("every put, across clients, must carry its own version")
	}
}

func TestVerifyCatchesAnyFlippedByte(t *testing.T) {
	ks := newKeyspace(3, 10, 4, 128)
	v := ks.value(nil, 5, 2, 9)
	if err := ks.verify(v, 5, 2); err != nil {
		t.Fatalf("fresh value: %v", err)
	}
	if ks.verify(v, 5, 3) == nil || ks.verify(v, 6, 2) == nil {
		t.Error("a value must not verify under another cell's address")
	}
	if ks.verify(v[:len(v)-1], 5, 2) == nil {
		t.Error("a truncated value must not verify")
	}
	for i := range v {
		v[i] ^= 0x10
		if ks.verify(v, 5, 2) == nil {
			t.Errorf("flipped byte %d went unnoticed", i)
		}
		v[i] ^= 0x10
	}
	// Distinct per (seed, pk, ck, version), half random and half zero.
	other := newKeyspace(4, 10, 4, 128).value(nil, 5, 2, 9)
	if string(other) == string(v) || string(ks.value(nil, 5, 2, 10)) == string(v) {
		t.Error("values must differ by seed and by version")
	}
	payload := v[valueHeader:]
	for _, b := range payload[len(payload)/2:] {
		if b != 0 {
			t.Fatal("the payload's second half must be zero")
		}
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	spans := []span{
		{0, spanEncReq, spanOp, "wire.encode", 0, 10},
		{0, spanHandler, spanCall, "bench.handler", 30, 70},
		{0, spanEngine, spanHandler, "storage.get", 40, 60},
		{0, spanCall, spanOp, "transport.call", 10, 90},
		{0, spanOp, -1, "bench.op", 0, 100},
	}
	self, total := selfTimes(spans)
	want := map[string]int64{"wire.encode": 10, "bench.handler": 20, "storage.get": 20, "transport.call": 40, "bench.op": 10}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self[%s] = %d, want %d", name, self[name], w)
		}
	}
	if total["transport.call"] != 80 {
		t.Errorf("total[transport.call] = %d, want 80", total["transport.call"])
	}
}

func TestGuardsMarkARunInvalid(t *testing.T) {
	sp := &spec{guards: guards{minHit: 0.4, maxHit: 0.8, minCompactions: 3, ampHalvesTol: 0.2}}
	snap := func(hits, misses, flushed, user int64, compactions int64) counters {
		c := counters{hits: hits, misses: misses, flushedBytes: flushed, userBytes: uint64(user)}
		for i := range c.nodeCompactions {
			c.nodeCompactions[i] = compactions
		}
		return c
	}
	good := &windowResult{before: snap(0, 0, 0, 0, 0), mid: snap(30, 20, 100, 100, 2), after: snap(60, 40, 210, 200, 4)}
	if broken := good.validity(sp); len(broken) != 0 {
		t.Errorf("a valid window was rejected: %v", broken)
	}
	bad := &windowResult{before: snap(0, 0, 0, 0, 0), mid: snap(45, 5, 100, 100, 1), after: snap(90, 10, 400, 200, 2)}
	bad.after.failovers = 1
	if broken := bad.validity(sp); len(broken) != 4 {
		t.Errorf("want failovers, hit ratio, compactions and write-amp halves all flagged, got %v", broken)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{{"-workload", "nope"}, {"-trace", "2"}, {"-seconds", "0"}, {"stray"}} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}

// toy shrinks a workload to test size: same shape and code paths, no
// guards, since two thousand partitions fit any cache.
func toy(sp *spec) (*spec, config) {
	small := *sp
	small.partitions, small.setups, small.guards = 2000, 1, guards{}
	return &small, config{seed: 42, warmup: 50 * time.Millisecond, measure: 400 * time.Millisecond, trace: true, serial: 500}
}

// TestEveryWorkloadReportsEveryMetric runs all five workloads and their
// traced passes at toy size and holds the output against BENCHMARK.json:
// every metric it names is there, finite, with the unit it names, and
// nothing else is.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var contract struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &contract); err != nil {
		t.Fatal(err)
	}
	if len(contract.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(contract.Workloads), len(workloads))
	}
	check := func(t *testing.T, kind string, want []decl, got []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics reported, BENCHMARK.json names %d", kind, len(got), len(want))
		}
		have := map[string]metric{}
		for _, m := range got {
			have[m.Name] = m
		}
		for _, d := range want {
			m, ok := have[d.Name]
			switch {
			case !ok:
				t.Errorf("%s: %s is missing", kind, d.Name)
			case m.Unit != d.Unit:
				t.Errorf("%s: %s has unit %q, want %q", kind, d.Name, m.Unit, d.Unit)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
				t.Errorf("%s: %s = %v", kind, d.Name, m.Value)
			}
		}
	}
	for i, sp := range workloads {
		t.Run(sp.name, func(t *testing.T) {
			if contract.Workloads[i].Name != sp.name {
				t.Errorf("BENCHMARK.json workload %d is %q", i, contract.Workloads[i].Name)
			}
			small, cfg := toy(sp)
			cfg.outDir, cfg.scratch = t.TempDir(), t.TempDir()
			r, err := runWorkload(small, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 || r.Samples == 0 {
				t.Errorf("correct=%v failed=%d attempted=%d samples=%d first error %q", r.Correct, r.Failed, r.Attempted, r.Samples, r.FirstErr)
			}
			check(t, "end_to_end", contract.EndToEnd, r.EndToEnd)
			check(t, "per_layer", contract.PerLayer, r.Layers)
			for _, m := range r.EndToEnd {
				if m.Value <= 0 {
					t.Errorf("end-to-end %s = %v, must never be 0", m.Name, m.Value)
				}
			}
			if fi, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+sp.name+".jsonl")); err != nil || fi.Size() == 0 {
				t.Errorf("span file: %v", err)
			}
			if left, _ := os.ReadDir(cfg.scratch); len(left) != 0 {
				t.Errorf("%d entries left in the scratch directory", len(left))
			}
		})
	}
}

// TestTracedCountsRepeat: with one client, no timers and nothing
// evicted, two traced passes on a seed see the same spans and the same
// block-cache traffic.
func TestTracedCountsRepeat(t *testing.T) {
	counts := func() map[string]float64 {
		small, cfg := toy(workloads[0])
		b, err := setup(small, cfg.seed, filepath.Join(t.TempDir(), "data"))
		if err != nil {
			t.Fatal(err)
		}
		defer b.close()
		led, err := b.ledger(cfg.serial, t.TempDir(), t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]float64{}
		for _, m := range led.metrics {
			switch m.Name {
			case "trace.spans", "trace.cache_hits", "trace.cache_misses", "wire.bytes_per_op":
				out[m.Name] = m.Value
			}
		}
		return out
	}
	first, second := counts(), counts()
	if first["trace.spans"] == 0 || first["trace.cache_hits"] == 0 {
		t.Fatalf("no spans or cache traffic recorded: %v", first)
	}
	for name, v := range first {
		if second[name] != v {
			t.Errorf("%s: %v then %v on the same seed", name, v, second[name])
		}
	}
}

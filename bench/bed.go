package main

import (
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"scalekv/internal/cluster"
)

// bed is one workload's running cluster with its data loaded.
type bed struct {
	sp  *spec
	ks  *keyspace
	cl  *cluster.Cluster
	dir string

	// userBytes counts what the clients wrote, replicas included, so a
	// snapshot can pair it with the engines' flushed bytes.
	userBytes atomic.Uint64
}

// setup is what setup_s times: cluster start, preload of every cell at
// version 0, FlushAll and WaitIdle, so the window starts on SSTables
// with no background work pending. One batcher with one batch in flight
// per node keeps each node's arrival order — and so its memtable freeze
// points and tables — the same for a seed.
func setup(sp *spec, seed uint64, dir string) (*bed, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cl, err := startCluster(sp, sp.rf, dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("start cluster: %w", err)
	}
	b := &bed{sp: sp, ks: newKeyspace(seed, sp.partitions, sp.cells, sp.valueSize), cl: cl, dir: dir}
	if err := b.preload(); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *bed) preload() error {
	batcher := b.cl.Client().NewBatcher(cluster.BatcherOptions{MaxInFlight: 1})
	var val []byte
	for pk := range b.ks.pks {
		for ck := range b.ks.cks {
			val = b.ks.value(val, pk, ck, 0)
			if err := batcher.Put(b.ks.pks[pk], b.ks.cks[ck], val); err != nil {
				return fmt.Errorf("preload: %w", err)
			}
		}
	}
	if err := batcher.Close(); err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	if err := b.cl.FlushAll(); err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	for _, n := range b.cl.Nodes {
		if err := n.Engine().WaitIdle(); err != nil {
			return fmt.Errorf("wait idle: %w", err)
		}
	}
	return nil
}

func (b *bed) close() error {
	err := b.cl.Close()
	if rerr := os.RemoveAll(b.dir); err == nil {
		err = rerr
	}
	return err
}

// counters is a snapshot of every cumulative count the ledger reads:
// the engines' own (summed over nodes), the client's and the process's.
// Reading them costs the measured system nothing but a few atomic
// loads, so the timed run takes the same snapshots as the traced one.
type counters struct {
	at time.Time

	flushes, flushedBytes      int64
	compactions, compactionOut int64
	nodeCompactions            [ringNodes]int64
	hits, misses, evictions    int64
	blockLogical, blockStored  int64
	sstableBytes               int64
	frozen                     int
	failovers                  int64
	userBytes                  uint64        // bytes the clients asked the engines to store
	cpu                        time.Duration // user + system
	maxRSSKB                   int64
	mallocs                    uint64
	gcPause                    time.Duration
}

// snapshot reads the engines and the client. withProcess adds rusage
// and runtime.MemStats; the latter stops the world for a moment, so the
// 10 Hz sampler leaves it out.
func (b *bed) snapshot(withProcess bool) counters {
	c := counters{at: time.Now(), userBytes: b.userBytes.Load()}
	for i, n := range b.cl.Nodes {
		st := n.Engine().Stats()
		c.flushes += st.Flushes
		c.flushedBytes += st.FlushedBytes
		c.compactions += st.Compactions
		c.compactionOut += st.CompactionBytesOut
		c.nodeCompactions[i] = st.Compactions
		c.hits += st.BlockCacheHits
		c.misses += st.BlockCacheMisses
		c.evictions += st.BlockCacheEvictions
		c.blockLogical += st.BlockBytesLogical
		c.blockStored += st.BlockBytesStored
		c.sstableBytes += st.SSTableBytes
		c.frozen += st.FrozenMemtables
	}
	c.failovers = b.cl.Client().Failovers.Load()
	if withProcess {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
			c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
			c.maxRSSKB = int64(ru.Maxrss)
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		c.mallocs = ms.Mallocs
		c.gcPause = time.Duration(ms.PauseTotalNs)
	}
	return c
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func hitRatio(a, b counters) float64 {
	return ratio(float64(b.hits-a.hits), float64(b.hits-a.hits+b.misses-a.misses))
}

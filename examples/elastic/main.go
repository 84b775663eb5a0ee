// Elastic: grow a live cluster. A 3-node in-process cluster ingests a
// stream of cells with continuous point reads while a fourth node
// joins: the coordinator snapshots the ownership diff, dual-writes the
// moving ranges, streams them to the new member, flips the topology
// epoch, and retires the moved data at its old owners. The demo reports
// ingest throughput, the flip pause, the moved-cell fraction, and
// verifies zero failed operations and full readability at the new
// epoch — the paper's "almost linear scalability by adding nodes",
// exercised end to end.
package main

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"scalekv"
)

func main() {
	cl, err := scalekv.StartClusterWith(scalekv.ClusterOptions{
		Nodes: 3,
		Storage: scalekv.StorageOptions{
			DisableWAL:     true,
			FlushThreshold: 256 << 10,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	c := cl.Client()
	key := func(i int) string { return fmt.Sprintf("cell-%07d", i) }

	const preload = 20000
	fmt.Printf("preloading %d cells into %d nodes (epoch %d)...\n",
		preload, cl.Topology().Size(), cl.Topology().Epoch())
	b := c.NewBatcher(scalekv.BatcherOptions{MaxEntries: 128})
	for i := 0; i < preload; i++ {
		if err := b.Put(key(i), []byte("ck"), []byte(key(i))); err != nil {
			log.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		log.Fatal(err)
	}

	// Live traffic: one writer ingesting fresh cells (bounded, so the
	// stream is not chasing an ever-growing keyspace on a small box),
	// one reader verifying preloaded ones, both running across the join.
	const liveWrites = 10000
	var (
		stop    atomic.Bool
		written atomic.Int64
		reads   atomic.Int64
		failed  atomic.Int64
	)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := preload; i < preload+liveWrites && !stop.Load(); i++ {
			if err := c.Put(key(i), []byte("ck"), []byte(key(i))); err != nil {
				failed.Add(1)
				return
			}
			written.Add(1)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i = (i + 13) % preload {
			v, found, err := c.Get(key(i), []byte("ck"))
			if err != nil || !found || string(v) != key(i) {
				failed.Add(1)
				return
			}
			reads.Add(1)
		}
	}()

	ingestStart := time.Now()
	fmt.Println("adding node 3 under live traffic...")
	node, report, err := cl.AddNode()
	if err != nil {
		log.Fatal(err)
	}
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(ingestStart)

	total := preload + int(written.Load())
	fmt.Printf("join complete: epoch %d, %d members\n", report.Epoch, cl.Topology().Size())
	fmt.Printf("  moves:           %d ranges, %d pages\n", report.Moves, report.Pages)
	fmt.Printf("  cells streamed:  %d (%.1f%% of %d; ideal 1/N = %.1f%%)\n",
		report.CellsStreamed, 100*float64(report.CellsStreamed)/float64(total),
		total, 100.0/float64(cl.Topology().Size()))
	fmt.Printf("  cells retired:   %d at the old owners\n", report.CellsRetired)
	fmt.Printf("  stream time:     %v (traffic kept flowing)\n", report.StreamDuration.Round(time.Millisecond))
	fmt.Printf("  flip pause:      %v\n", report.FlipDuration.Round(time.Microsecond))
	fmt.Printf("  during the join: %d writes, %d reads, %d failures\n",
		written.Load(), reads.Load(), failed.Load())
	fmt.Printf("  ingest+read throughput alongside the join: %.0f ops/sec\n",
		float64(written.Load()+reads.Load())/elapsed.Seconds())
	if failed.Load() > 0 {
		log.Fatal("elastic demo saw failed operations")
	}

	// Every cell — preloaded and ingested mid-join — reads back at the
	// new epoch.
	for i := 0; i < total; i++ {
		v, found, err := c.Get(key(i), []byte("ck"))
		if err != nil || !found || string(v) != key(i) {
			log.Fatalf("cell %s unreadable at epoch %d: err=%v found=%v", key(i), report.Epoch, err, found)
		}
	}
	parts, err := node.Engine().Partitions()
	if err != nil {
		log.Fatalf("list the new node's partitions: %v", err)
	}
	fmt.Printf("verified: all %d cells readable at epoch %d; new node serves %d partitions\n",
		total, report.Epoch, len(parts))
}

// Particles runs the paper's case study end to end: simulate an
// Alya-style inhalation (particles advected into a bronchial tree),
// index the records with the denormalized D8-tree over a cluster, and
// answer region queries at the granularity the performance model picks.
// It exits non-zero unless every level answers the query with the same
// hits and the census matches a brute-force count over the records.
package main

import (
	"fmt"
	"log"
	"time"

	"scalekv"
	"scalekv/internal/alya"
)

func main() {
	// 1. Generate the dataset: particle states over an inhalation.
	fmt.Println("simulating inhalation (1500 particles x 25 steps)...")
	records := alya.Simulate(alya.Config{Particles: 1500, Steps: 25, Types: 4, Seed: 7})
	fmt.Printf("  %d records\n", len(records))
	deposition := alya.DepositionByType(records)
	for ty := uint8(0); ty < 4; ty++ {
		fmt.Printf("  type %d deposited: %.0f%%\n", ty, deposition[ty]*100)
	}

	// 2. Index into a 4-node cluster through the D8-tree: every record
	// is denormalized into cubes at levels 0..3.
	cl, err := scalekv.StartClusterWith(scalekv.ClusterOptions{
		Nodes:   4,
		Storage: scalekv.StorageOptions{DisableWAL: true},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	tree := scalekv.NewD8Tree(scalekv.ClientStore(cl.Client()), scalekv.D8TreeOptions{MaxLevel: 3})

	fmt.Println("indexing through the D8-tree (4 levels, 4x denormalization, batched)...")
	start := time.Now()
	points := make([]scalekv.Point, len(records))
	for i, r := range records {
		points[i] = scalekv.Point{
			ID:   uint64(i),
			X:    r.X,
			Y:    r.Y,
			Z:    r.Z,
			Type: r.Type,
		}
	}
	// InsertBatch ships every denormalized copy through the cluster's
	// batched write path: entries are grouped by destination node and
	// group-committed there, instead of MaxLevel+1 RPCs per point.
	const loadChunk = 4096
	for lo := 0; lo < len(points); lo += loadChunk {
		hi := min(lo+loadChunk, len(points))
		if err := tree.InsertBatch(points[lo:hi]); err != nil {
			log.Fatal(err)
		}
	}
	if err := cl.FlushAll(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  indexed %d points in %v\n", len(records), time.Since(start).Round(time.Millisecond))

	// 3. Query: which particle types reach the left lung's deeper
	// generations? (The airway tree descends from y=1 toward y=0.5, so
	// the deep-airway band is y in [0.5, 0.75]; the left lung is
	// x < 0.5.)
	region := scalekv.Box{
		MinX: 0.0, MaxX: 0.5,
		MinY: 0.5, MaxY: 0.75,
		MinZ: 0.0, MaxZ: 1.0,
	}

	// The D8-tree can answer at any level; the model chooses.
	sys := scalekv.PaperSystem()
	plan := tree.PlanQuery(region, sys, 4, len(records))
	fmt.Printf("model-chosen level for this region: %d (%d cubes, predicted %.1f ms on the paper's hardware)\n",
		plan.Level, plan.Keys, plan.Prediction.TotalMs)

	// Brute force over the generated records: the answer every level
	// must give.
	want := map[uint8]uint64{}
	for _, p := range points {
		if region.Contains(p) {
			want[p.Type]++
		}
	}
	var hits int
	for _, n := range want {
		hits += int(n)
	}
	for level := 0; level <= 3; level++ {
		start := time.Now()
		res, err := tree.Query(region, level)
		if err != nil {
			log.Fatal(err)
		}
		if len(res.Points) != hits {
			log.Fatalf("level %d returned %d hits, brute force over the records = %d", level, len(res.Points), hits)
		}
		marker := " "
		if level == plan.Level {
			marker = "*"
		}
		fmt.Printf("%s level %d: %4d cubes read, %6d cells scanned, %5d hits, %v\n",
			marker, level, res.CubesRead, res.CellsScanned, len(res.Points),
			time.Since(start).Round(time.Microsecond))
	}

	counts, err := tree.CountByType(region, plan.Level)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("deposition census in the region (count by type):")
	for ty := uint8(0); ty < 4; ty++ {
		fmt.Printf("  type %d: %d\n", ty, counts[ty])
	}
	for ty := uint8(0); ty < 4; ty++ {
		if counts[ty] != want[ty] {
			log.Fatalf("census type %d = %d, brute force over the records = %d", ty, counts[ty], want[ty])
		}
	}
	if len(counts) != len(want) {
		log.Fatalf("census has %d types, brute force %d", len(counts), len(want))
	}
}

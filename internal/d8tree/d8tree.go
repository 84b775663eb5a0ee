// Package d8tree implements the case study's index: a denormalized
// octree over a key-value store, after the authors' D8-tree (ICDCN'16).
//
// Space ([0,1)³) is cut into 8^L cubes at every level L; each element is
// written into its enclosing cube at *every* level up to MaxLevel. That
// denormalization is the whole point: a query can be answered at any
// level, so the application can choose how many keys it touches — few
// large partitions or many small ones — which is exactly the
// coarse/medium/fine trade-off the paper's model optimizes.
package d8tree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"scalekv/internal/core"
	"scalekv/internal/row"
)

// Store is the key-value substrate the tree writes through: the local
// storage engine and the cluster client both satisfy it via thin
// adapters.
type Store interface {
	Put(pk string, ck, value []byte) error
	Scan(pk string, from, to []byte) ([]row.Cell, error)
}

// BatchStore is the batch-capable Store variant: substrates that can
// group-commit many cells at once (the storage engine's PutBatch, the
// cluster client's batched write path) implement it, and InsertBatch
// detects it to ship each point's denormalized copies in bulk instead
// of one Put per level.
type BatchStore interface {
	Store
	PutBatch(entries []row.Entry) error
}

// Point is an indexed element.
type Point struct {
	ID      uint64
	X, Y, Z float64
	Type    uint8
}

// Box is an axis-aligned query region; Min inclusive, Max exclusive.
type Box struct {
	MinX, MinY, MinZ float64
	MaxX, MaxY, MaxZ float64
}

// Contains reports whether the point lies inside the box.
func (b Box) Contains(p Point) bool {
	return p.X >= b.MinX && p.X < b.MaxX &&
		p.Y >= b.MinY && p.Y < b.MaxY &&
		p.Z >= b.MinZ && p.Z < b.MaxZ
}

// Volume returns the box volume clipped to the unit cube.
func (b Box) Volume() float64 {
	dx := math.Min(b.MaxX, 1) - math.Max(b.MinX, 0)
	dy := math.Min(b.MaxY, 1) - math.Max(b.MinY, 0)
	dz := math.Min(b.MaxZ, 1) - math.Max(b.MinZ, 0)
	if dx <= 0 || dy <= 0 || dz <= 0 {
		return 0
	}
	return dx * dy * dz
}

// Tree is a denormalized octree bound to a store.
type Tree struct {
	store    Store
	maxLevel int
	mu       sync.Mutex
	count    int64 // elements indexed
}

// readParallelism bounds concurrent cube reads in a query.
const readParallelism = 16

// Options configures a tree.
type Options struct {
	// MaxLevel is the deepest cube level; elements are replicated into
	// levels 0..MaxLevel (MaxLevel+1 copies). 0 means 4.
	MaxLevel int
}

// New binds a tree to a store.
func New(store Store, opts Options) *Tree {
	if opts.MaxLevel <= 0 {
		opts.MaxLevel = 4
	}
	return &Tree{store: store, maxLevel: opts.MaxLevel}
}

// MaxLevel returns the deepest level.
func (t *Tree) MaxLevel() int { return t.maxLevel }

// Count returns how many elements were inserted through this handle.
func (t *Tree) Count() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.count
}

// CubeKey names the cube containing (x,y,z) at the given level — the
// partition key the element lands on.
func CubeKey(level int, x, y, z float64) string {
	n := 1 << level
	ix, iy, iz := int(x*float64(n)), int(y*float64(n)), int(z*float64(n))
	if ix >= n {
		ix = n - 1
	}
	if iy >= n {
		iy = n - 1
	}
	if iz >= n {
		iz = n - 1
	}
	return fmt.Sprintf("L%d-%d-%d-%d", level, ix, iy, iz)
}

// encodePoint serializes a point value: type byte first (the count-by-
// type aggregation reads it without decoding the rest), then coords.
func encodePoint(p Point) []byte {
	out := make([]byte, 0, 1+8*3)
	out = append(out, p.Type)
	out = binary.BigEndian.AppendUint64(out, math.Float64bits(p.X))
	out = binary.BigEndian.AppendUint64(out, math.Float64bits(p.Y))
	out = binary.BigEndian.AppendUint64(out, math.Float64bits(p.Z))
	return out
}

// ErrCorruptValue reports a cube cell that does not decode as a point.
var ErrCorruptValue = errors.New("d8tree: corrupt point value")

func decodePoint(id uint64, value []byte) (Point, error) {
	if len(value) < 1+24 {
		return Point{}, ErrCorruptValue
	}
	return Point{
		ID:   id,
		Type: value[0],
		X:    math.Float64frombits(binary.BigEndian.Uint64(value[1:])),
		Y:    math.Float64frombits(binary.BigEndian.Uint64(value[9:])),
		Z:    math.Float64frombits(binary.BigEndian.Uint64(value[17:])),
	}, nil
}

func ckForID(id uint64) []byte {
	var ck [8]byte
	binary.BigEndian.PutUint64(ck[:], id)
	return ck[:]
}

// Insert writes the point into its cube at every level — the
// denormalization step. Points outside the unit cube are rejected.
func (t *Tree) Insert(p Point) error {
	if p.X < 0 || p.X >= 1 || p.Y < 0 || p.Y >= 1 || p.Z < 0 || p.Z >= 1 {
		return fmt.Errorf("d8tree: point (%v,%v,%v) outside unit cube", p.X, p.Y, p.Z)
	}
	value := encodePoint(p)
	ck := ckForID(p.ID)
	for level := 0; level <= t.maxLevel; level++ {
		if err := t.store.Put(CubeKey(level, p.X, p.Y, p.Z), ck, value); err != nil {
			return err
		}
	}
	t.mu.Lock()
	t.count++
	t.mu.Unlock()
	return nil
}

// InsertBatch indexes many points at once. Each point is still
// denormalized into every level, but the resulting entries go through
// the store's batch path when it offers one — for a cluster-backed
// store this turns MaxLevel+1 RPCs per point into a few batched frames
// per destination node. Stores without batch support fall back to the
// single-put path. Points outside the unit cube reject the whole batch
// before any write is issued.
func (t *Tree) InsertBatch(points []Point) error {
	for _, p := range points {
		if p.X < 0 || p.X >= 1 || p.Y < 0 || p.Y >= 1 || p.Z < 0 || p.Z >= 1 {
			return fmt.Errorf("d8tree: point (%v,%v,%v) outside unit cube", p.X, p.Y, p.Z)
		}
	}
	bs, ok := t.store.(BatchStore)
	if !ok {
		for _, p := range points {
			if err := t.Insert(p); err != nil {
				return err
			}
		}
		return nil
	}
	entries := make([]row.Entry, 0, len(points)*(t.maxLevel+1))
	for _, p := range points {
		value := encodePoint(p)
		ck := ckForID(p.ID)
		for level := 0; level <= t.maxLevel; level++ {
			entries = append(entries, row.Entry{
				PK: CubeKey(level, p.X, p.Y, p.Z), CK: ck, Value: value,
			})
		}
	}
	if err := bs.PutBatch(entries); err != nil {
		return err
	}
	t.mu.Lock()
	t.count += int64(len(points))
	t.mu.Unlock()
	return nil
}

// CubesForBox lists the cube keys at a level that intersect the box —
// the key set a query at that level must read.
func CubesForBox(level int, b Box) []string {
	n := 1 << level
	clampIdx := func(v float64) int {
		i := int(v * float64(n))
		if i < 0 {
			return 0
		}
		if i >= n {
			return n - 1
		}
		return i
	}
	// Max bounds are exclusive: back off an ulp so an aligned edge does
	// not drag in the next cube row.
	lox, hix := clampIdx(b.MinX), clampIdx(math.Nextafter(b.MaxX, b.MinX))
	loy, hiy := clampIdx(b.MinY), clampIdx(math.Nextafter(b.MaxY, b.MinY))
	loz, hiz := clampIdx(b.MinZ), clampIdx(math.Nextafter(b.MaxZ, b.MinZ))
	var out []string
	for x := lox; x <= hix; x++ {
		for y := loy; y <= hiy; y++ {
			for z := loz; z <= hiz; z++ {
				out = append(out, fmt.Sprintf("L%d-%d-%d-%d", level, x, y, z))
			}
		}
	}
	return out
}

// QueryResult carries a range query's outcome and its cost evidence.
type QueryResult struct {
	Points []Point
	// CubesRead is the number of partitions touched (the "keys" of the
	// paper's model).
	CubesRead int
	// CellsScanned counts elements read before box filtering —
	// coarser levels over-read, finer levels read more partitions.
	CellsScanned int
}

// Query reads every intersecting cube at the given level, filters by
// the box, and returns the matching points. Cube reads fan out across
// readParallelism goroutines.
func (t *Tree) Query(b Box, level int) (*QueryResult, error) {
	if level < 0 || level > t.maxLevel {
		return nil, fmt.Errorf("d8tree: level %d outside [0,%d]", level, t.maxLevel)
	}
	cubes := CubesForBox(level, b)
	res := &QueryResult{CubesRead: len(cubes)}

	var mu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, readParallelism)
	var firstErr error
	for _, cube := range cubes {
		cube := cube
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			cells, err := t.store.Scan(cube, nil, nil)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			for _, c := range cells {
				res.CellsScanned++
				id := binary.BigEndian.Uint64(c.CK)
				p, err := decodePoint(id, c.Value)
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					return
				}
				if b.Contains(p) {
					res.Points = append(res.Points, p)
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return res, nil
}

// CountByType aggregates matching points per type — the paper's
// prototype query over the D8tree dataset.
func (t *Tree) CountByType(b Box, level int) (map[uint8]uint64, error) {
	res, err := t.Query(b, level)
	if err != nil {
		return nil, err
	}
	out := map[uint8]uint64{}
	for _, p := range res.Points {
		out[p.Type]++
	}
	return out, nil
}

// Plan chooses the query level the performance model predicts to be
// fastest: finer levels mean more keys (better balance, more messages),
// coarser levels mean fewer, larger reads — the exact trade-off of
// Section VI, decided per query.
type Plan struct {
	Level      int
	Keys       int
	RowSize    float64
	Prediction core.Prediction
}

// PlanQuery evaluates every level against the model for a cluster of
// the given size and returns the winner.
func (t *Tree) PlanQuery(b Box, sys core.System, nodes int, totalElements int) Plan {
	best := Plan{Level: 0}
	for level := 0; level <= t.maxLevel; level++ {
		cubes := CubesForBox(level, b)
		keys := len(cubes)
		// Elements a cube holds on average: total mass spread over 8^L
		// cubes. Over-read is inherent at coarse levels; the model sees
		// it as bigger rows.
		cubesAtLevel := math.Pow(8, float64(level))
		rowSize := float64(totalElements) / cubesAtLevel
		if rowSize < 1 {
			rowSize = 1
		}
		pred := sys.Predict(int(rowSize)*keys, keys, nodes)
		if best.Keys == 0 || pred.TotalMs < best.Prediction.TotalMs {
			best = Plan{Level: level, Keys: keys, RowSize: rowSize, Prediction: pred}
		}
	}
	return best
}

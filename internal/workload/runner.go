package workload

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"scalekv/internal/row"
)

// Keyspace is the pre-generated key material a run draws from: nothing
// is formatted on the hot path. Every PK holds CellsPerKey cells
// (distinct CKs), so scans return multi-cell partitions and updates
// spread over the cells of a partition.
type Keyspace struct {
	PKs   []string
	CKs   [][]byte
	Value []byte
}

// NewKeyspace builds n partition keys with cellsPerKey cells each and
// one shared valueSize-byte payload (deterministic from seed). The
// payload buffer is read-only by convention: the client marshals it
// into each request, so all writers can share it.
func NewKeyspace(n int64, cellsPerKey, valueSize int, seed int64) *Keyspace {
	ks := &Keyspace{
		PKs:   make([]string, n),
		CKs:   make([][]byte, cellsPerKey),
		Value: make([]byte, valueSize),
	}
	for i := int64(0); i < n; i++ {
		ks.PKs[i] = fmt.Sprintf("user%08d", i)
	}
	for c := 0; c < cellsPerKey; c++ {
		ks.CKs[c] = []byte(fmt.Sprintf("f%02d", c))
	}
	rand.New(rand.NewSource(seed)).Read(ks.Value)
	return ks
}

// Cells returns the total cell count of the keyspace.
func (ks *Keyspace) Cells() int64 { return int64(len(ks.PKs)) * int64(len(ks.CKs)) }

// LoadKeyspace preloads every cell of the keyspace through the batched
// write path, batchSize entries per PutBatch. Returns the cell count
// written.
func LoadKeyspace(s BatchStore, ks *Keyspace, batchSize int) (int64, error) {
	if batchSize < 1 {
		batchSize = 256
	}
	batch := make([]row.Entry, 0, batchSize)
	var cells int64
	for _, pk := range ks.PKs {
		for _, ck := range ks.CKs {
			batch = append(batch, row.Entry{PK: pk, CK: ck, Value: ks.Value})
			if len(batch) == batchSize {
				if err := s.PutBatch(batch); err != nil {
					return cells, err
				}
				cells += int64(len(batch))
				batch = batch[:0]
			}
		}
	}
	if len(batch) > 0 {
		if err := s.PutBatch(batch); err != nil {
			return cells, err
		}
		cells += int64(len(batch))
	}
	return cells, nil
}

// StepConfig shapes one measured step of a sweep.
type StepConfig struct {
	// Clients is the concurrent worker-goroutine count.
	Clients int
	// Duration bounds the step in wall time (0 = unbounded; then
	// MaxOps must be set).
	Duration time.Duration
	// MaxOps bounds the step in total operations across all workers
	// (0 = unbounded; then Duration must be set). Tests use this for
	// determinism.
	MaxOps int64
	// Seed derives every worker's chooser and op stream; a fixed seed
	// replays the same key/op sequences per worker.
	Seed int64
}

// StepResult is one measured step: merged latency histogram plus op
// and error counts. Errors are transport/storage failures — a read
// that found nothing is a normal outcome, not an error.
type StepResult struct {
	Clients int
	Elapsed time.Duration
	Ops     uint64
	Errors  uint64
	// FirstErr is the first failure a worker saw (nil when Errors is
	// 0), kept so the caller can say what failed, not only how often.
	FirstErr error
	Hist     *Histogram
}

// RunStep drives the mix against the store with cfg.Clients worker
// goroutines until the duration or op budget runs out: a closed loop,
// each worker issuing as fast as the store answers. Each worker owns
// its chooser, op stream and histogram (merged at the end), so the
// measurement loop itself is allocation- and contention-free; the
// per-op cost it adds over the store call is two PRNG draws, a clock
// read and a histogram increment.
func RunStep(s Store, mix Mix, ks *Keyspace, cfg StepConfig) StepResult {
	if cfg.Clients < 1 {
		cfg.Clients = 1
	}
	readT, updateT, scanT := mix.thresholds()
	var opBudget atomic.Int64 // counts down when MaxOps is set

	opBudget.Store(cfg.MaxOps)
	var deadline time.Time
	if cfg.Duration > 0 {
		deadline = time.Now().Add(cfg.Duration)
	}

	workers := make([]StepResult, cfg.Clients)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Distinct per-worker seeds: identical seeds would make
			// every worker hammer the same key sequence in lockstep.
			chooser := NewChooser(mix, int64(len(ks.PKs)), cfg.Seed+int64(w)*7919)
			ops := rand.New(rand.NewSource(cfg.Seed ^ (int64(w)+1)*104729))
			res := StepResult{Hist: NewHistogram()}
			for {
				if cfg.MaxOps > 0 && opBudget.Add(-1) < 0 {
					break
				}
				if cfg.Duration > 0 && time.Now().After(deadline) {
					break
				}
				pk := ks.PKs[chooser.Next()]
				ck := ks.CKs[ops.Intn(len(ks.CKs))]
				kind := opKind(ops.Intn(100), readT, updateT, scanT)
				begin := time.Now()
				var err error
				switch kind {
				case OpRead:
					_, _, err = s.Get(pk, ck)
				case OpUpdate:
					err = s.Put(pk, ck, ks.Value)
				case OpScan:
					_, err = s.Scan(pk, nil, nil)
				case OpDelete:
					err = s.Delete(pk, ck)
				}
				res.Hist.Record(time.Since(begin))
				res.Ops++
				if err != nil {
					res.Errors++
					if res.FirstErr == nil {
						res.FirstErr = err
					}
				}
			}
			workers[w] = res
		}(w)
	}
	wg.Wait()

	total := StepResult{Clients: cfg.Clients, Elapsed: time.Since(start), Hist: NewHistogram()}
	for _, res := range workers {
		total.Ops += res.Ops
		total.Errors += res.Errors
		if total.FirstErr == nil {
			total.FirstErr = res.FirstErr
		}
		total.Hist.Merge(res.Hist)
	}
	return total
}

// opKind picks the operation for one uniform draw in [0,100) against
// the mix's cumulative thresholds.
func opKind(draw, readT, updateT, scanT int) OpKind {
	switch {
	case draw < readT:
		return OpRead
	case draw < updateT:
		return OpUpdate
	case draw < scanT:
		return OpScan
	default:
		return OpDelete
	}
}

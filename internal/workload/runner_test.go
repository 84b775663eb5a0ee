package workload

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"scalekv/internal/row"
)

// fakeStore is an in-memory Store that counts operations by kind.
type fakeStore struct {
	mu    sync.Mutex
	cells map[string]map[string][]byte
	ops   [4]uint64 // indexed by OpKind
}

func newFakeStore() *fakeStore {
	return &fakeStore{cells: make(map[string]map[string][]byte)}
}

func (f *fakeStore) Get(pk string, ck []byte) ([]byte, bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops[OpRead]++
	v, ok := f.cells[pk][string(ck)]
	return v, ok, nil
}

func (f *fakeStore) Put(pk string, ck, value []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops[OpUpdate]++
	if f.cells[pk] == nil {
		f.cells[pk] = make(map[string][]byte)
	}
	f.cells[pk][string(ck)] = value
	return nil
}

func (f *fakeStore) Scan(pk string, from, to []byte) ([]row.Cell, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops[OpScan]++
	var out []row.Cell
	for ck, v := range f.cells[pk] {
		out = append(out, row.Cell{CK: []byte(ck), Value: v})
	}
	return out, nil
}

func (f *fakeStore) Delete(pk string, ck []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops[OpDelete]++
	delete(f.cells[pk], string(ck))
	return nil
}

func (f *fakeStore) PutBatch(entries []row.Entry) error {
	for _, e := range entries {
		if err := f.Put(e.PK, e.CK, e.Value); err != nil {
			return err
		}
	}
	return nil
}

// TestRunStepHonorsMix drives every named mix for a fixed op budget
// and checks the store saw the advertised op proportions, the op
// budget was respected, and the measurement bookkeeping adds up.
func TestRunStepHonorsMix(t *testing.T) {
	for _, mix := range NamedMixes {
		t.Run(mix.Name, func(t *testing.T) {
			store := newFakeStore()
			ks := NewKeyspace(500, 4, 32, 1)
			if n, err := LoadKeyspace(store, ks, 64); err != nil || n != ks.Cells() {
				t.Fatalf("load: %d cells, err %v", n, err)
			}
			// The load phase went through Put; reset counters so only
			// measured traffic is checked.
			store.ops = [4]uint64{}

			const budget = 8000
			res := RunStep(store, mix, ks, StepConfig{Clients: 4, MaxOps: budget, Seed: 42})
			if res.Ops != budget {
				t.Fatalf("ran %d ops, budget %d", res.Ops, budget)
			}
			if res.Errors != 0 {
				t.Fatalf("%d errors from an error-free store", res.Errors)
			}
			if res.Hist.Count() != res.Ops {
				t.Fatalf("histogram has %d samples for %d ops", res.Hist.Count(), res.Ops)
			}
			if res.Hist.Percentile(50) <= 0 {
				t.Fatal("zero p50 after real ops")
			}
			var seen uint64
			for kind, weight := range map[OpKind]int{
				OpRead: mix.Read, OpUpdate: mix.Update, OpScan: mix.Scan, OpDelete: mix.Delete,
			} {
				got := store.ops[kind]
				seen += got
				want := uint64(budget * weight / 100)
				slack := uint64(budget / 25) // ±4% on a uniform draw over 8k ops
				if got+slack < want || got > want+slack {
					t.Errorf("op %d: %d of %d ops, want ≈%d (weight %d)", kind, got, budget, want, weight)
				}
			}
			if seen != budget {
				t.Fatalf("store saw %d ops, runner claims %d", seen, budget)
			}
		})
	}
}

// TestRunStepDeterministicKeys pins that a fixed seed replays the same
// key traffic: two runs against fresh stores leave identical contents.
func TestRunStepDeterministicKeys(t *testing.T) {
	mix, err := MixByName("delete-churn", 0)
	if err != nil {
		t.Fatal(err)
	}
	run := func() map[string]map[string][]byte {
		store := newFakeStore()
		ks := NewKeyspace(200, 2, 16, 7)
		if _, err := LoadKeyspace(store, ks, 32); err != nil {
			t.Fatal(err)
		}
		// One worker: with several, goroutine interleaving reorders
		// deletes against puts and the final contents may differ.
		RunStep(store, mix, ks, StepConfig{Clients: 1, MaxOps: 3000, Seed: 99})
		return store.cells
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs diverged: %d vs %d partitions", len(a), len(b))
	}
	for pk, cells := range a {
		if len(cells) != len(b[pk]) {
			t.Fatalf("partition %q diverged: %d vs %d cells", pk, len(cells), len(b[pk]))
		}
	}
}

// failingReads is a Store whose reads fail, each with a distinct error.
type failingReads struct {
	*fakeStore
	n atomic.Int64
}

func (f *failingReads) Get(pk string, ck []byte) ([]byte, bool, error) {
	return nil, false, fmt.Errorf("injected read failure %d", f.n.Add(1))
}

// TestRunStepKeepsFirstError: failed operations are counted and the
// first one's cause survives into the merged result.
func TestRunStepKeepsFirstError(t *testing.T) {
	mix, err := MixByName("read-heavy", 0)
	if err != nil {
		t.Fatal(err)
	}
	store := &failingReads{fakeStore: newFakeStore()}
	res := RunStep(store, mix, NewKeyspace(100, 2, 16, 1), StepConfig{Clients: 3, MaxOps: 600, Seed: 5})
	if res.Errors != uint64(store.n.Load()) || res.Errors == 0 {
		t.Fatalf("%d errors counted, store failed %d reads", res.Errors, store.n.Load())
	}
	if res.FirstErr == nil || !strings.HasPrefix(res.FirstErr.Error(), "injected read failure") {
		t.Fatalf("first error %v, want an injected read failure", res.FirstErr)
	}
}

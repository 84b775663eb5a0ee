package cluster

import (
	"fmt"
	"testing"

	"scalekv/internal/raceflag"
)

// TestClientOpAllocs pins what one routed operation allocates end to end
// on a warm in-process ring — client, transport and node together, since
// the counter is process-wide. The retry loop's send closures must stay
// on the stack: a closure or an error built on the happy path shows here
// as one more allocation per operation.
func TestClientOpAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts differ under -race")
	}
	c := startTest(t, LocalOptions{Nodes: 4})
	cli := c.Client()
	pk, ck, value := "alloc-pk", []byte("ck"), []byte("value")
	for i := 0; i < 8; i++ {
		if err := cli.Put(fmt.Sprintf("warm-%d", i), ck, value); err != nil {
			t.Fatal(err)
		}
	}
	if err := cli.Put(pk, ck, value); err != nil {
		t.Fatal(err)
	}
	for _, op := range []struct {
		name string
		max  float64
		run  func() error
	}{
		{"Get", 10, func() error {
			_, found, err := cli.Get(pk, ck)
			if err == nil && !found {
				err = fmt.Errorf("%s not found", pk)
			}
			return err
		}},
		{"Scan", 14, func() error {
			cells, err := cli.Scan(pk, nil, nil)
			if err == nil && len(cells) != 1 {
				err = fmt.Errorf("scan returned %d cells", len(cells))
			}
			return err
		}},
		{"Put", 15, func() error { return cli.Put(pk, ck, value) }},
	} {
		var err error
		allocs := testing.AllocsPerRun(500, func() {
			if e := op.run(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		if allocs > op.max {
			t.Errorf("%s allocates %.0f times per op, want <= %.0f", op.name, allocs, op.max)
		}
		t.Logf("%s: %.0f allocations per op", op.name, allocs)
	}
}

package cluster

import (
	"testing"

	"scalekv/internal/workload"
)

// cmd/kvload drives a cluster through these interfaces; a signature
// drift must fail compilation here, in the package that drifted.
var (
	_ workload.Store      = (*Client)(nil)
	_ workload.BatchStore = (*Client)(nil)
)

// TestWorkloadStepAgainstCluster runs a small hotspot step against a
// real in-process cluster: preload through the batched write path,
// then a fixed-op measured step that must complete error-free with a
// populated histogram — the same path `kvload -mix hotspot` takes
// against a deployed ring.
func TestWorkloadStepAgainstCluster(t *testing.T) {
	cl, err := StartLocal(LocalOptions{Nodes: 2, ReplicationFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	mix, err := workload.MixByName("hotspot", 0.9)
	if err != nil {
		t.Fatal(err)
	}
	ks := workload.NewKeyspace(300, 2, 32, 1)
	cells, err := workload.LoadKeyspace(cl.Client(), ks, 64)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if cells != ks.Cells() {
		t.Fatalf("loaded %d cells, want %d", cells, ks.Cells())
	}

	res := workload.RunStep(cl.Client(), mix, ks, workload.StepConfig{
		Clients: 4, MaxOps: 2000, Seed: 42,
	})
	if res.Ops != 2000 {
		t.Fatalf("ran %d ops, want 2000", res.Ops)
	}
	if res.Errors != 0 {
		t.Fatalf("%d errors against a healthy cluster", res.Errors)
	}
	if res.Hist.Count() != res.Ops || res.Hist.Percentile(50) <= 0 {
		t.Fatalf("histogram: %d samples, p50 %v", res.Hist.Count(), res.Hist.Percentile(50))
	}
	if got := cl.Client().Failovers.Load(); got != 0 {
		t.Fatalf("%d failover reads against a healthy cluster", got)
	}
}

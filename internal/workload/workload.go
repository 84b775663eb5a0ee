// Package workload is the traffic generator behind cmd/kvload:
// YCSB-style operation mixes, deterministic key choosers (uniform and
// Zipfian), a fixed-bucket latency histogram with no hot-path
// allocation, and a closed-loop runner that drives a mix through any
// Store — notably cluster.Client — and reports op counts, the first
// failure and latency percentiles. It records nothing: numbers the repo
// tracks come from bench/ (`bash bench/run.sh`, BENCHMARK.json).
package workload

import (
	"fmt"

	"scalekv/internal/row"
)

// Store is the operation surface a workload drives. cluster.Client
// satisfies it directly; tests use in-memory fakes.
type Store interface {
	Get(pk string, ck []byte) ([]byte, bool, error)
	Put(pk string, ck, value []byte) error
	Scan(pk string, from, to []byte) ([]row.Cell, error)
	Delete(pk string, ck []byte) error
}

// BatchStore is the bulk-load surface (cluster.Client and
// storage.Engine both provide it); LoadKeyspace preloads through it.
type BatchStore interface {
	PutBatch(entries []row.Entry) error
}

// OpKind is one workload operation type.
type OpKind uint8

const (
	OpRead OpKind = iota
	OpUpdate
	OpScan
	OpDelete
)

// Mix is a named YCSB-style operation mix: per-100 weights for each
// operation kind plus the key distribution the ops draw from. Weights
// must sum to 100.
type Mix struct {
	Name string
	// Read, Update, Scan, Delete are per-100 operation weights.
	Read, Update, Scan, Delete int
	// Zipfian selects the skewed key chooser; Theta is its skew
	// parameter (0 < theta < 1, higher = more skew). Uniform otherwise.
	Zipfian bool
	Theta   float64
}

// Weights returns the cumulative per-100 thresholds used to pick an op
// from a uniform draw in [0,100).
func (m Mix) thresholds() (read, update, scan int) {
	return m.Read, m.Read + m.Update, m.Read + m.Update + m.Scan
}

// NamedMixes are the standing mixes, in the order kvload lists them.
// read-heavy and update-heavy mirror YCSB B and A, scan-heavy mirrors
// YCSB E, hotspot is the read-heavy point on a
// Zipfian keyspace (the distribution most production KV traffic
// shows), and delete-churn exercises the tombstone path under mixed
// traffic.
var NamedMixes = []Mix{
	{Name: "read-heavy", Read: 95, Update: 5},
	{Name: "update-heavy", Read: 50, Update: 50},
	{Name: "scan-heavy", Scan: 95, Update: 5},
	{Name: "hotspot", Read: 95, Update: 5, Zipfian: true, Theta: 0.99},
	{Name: "delete-churn", Read: 40, Update: 40, Delete: 20},
}

// MixByName resolves a named mix. theta > 0 overrides the mix's skew
// parameter (only meaningful for Zipfian mixes).
func MixByName(name string, theta float64) (Mix, error) {
	for _, m := range NamedMixes {
		if m.Name != name {
			continue
		}
		if theta > 0 {
			m.Theta = theta
		}
		if m.Zipfian && (m.Theta <= 0 || m.Theta >= 1) {
			return Mix{}, fmt.Errorf("workload: mix %q needs 0 < theta < 1, got %g", name, m.Theta)
		}
		if m.Read+m.Update+m.Scan+m.Delete != 100 {
			return Mix{}, fmt.Errorf("workload: mix %q weights sum to %d, want 100", name, m.Read+m.Update+m.Scan+m.Delete)
		}
		return m, nil
	}
	return Mix{}, fmt.Errorf("workload: unknown mix %q (have %s)", name, MixNames())
}

// MixNames lists the named mixes for usage text.
func MixNames() string {
	s := ""
	for i, m := range NamedMixes {
		if i > 0 {
			s += " "
		}
		s += m.Name
	}
	return s
}

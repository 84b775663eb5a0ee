//go:build !race

// Package raceflag tells tests whether the race detector is compiled in.
// Allocation pins need to know: under -race sync.Pool drops a quarter of
// what is put into it and instrumentation moves values to the heap, so a
// count that holds in a normal build does not hold there.
package raceflag

// Enabled reports whether the binary was built with -race.
const Enabled = false

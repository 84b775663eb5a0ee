// Command kvload drives load at a deployed ring: it discovers the ring
// (epoch, members, replication factor) from the -addr seeds, preloads a
// keyspace through the batched write path, runs a YCSB-style named mix
// as a closed loop once per entry of -clients, each step for -duration,
// and prints one line per step. It reports and does not record: the
// instrument for claims about this system is `bash bench/run.sh`
// (BENCHMARK.json), the paper figures live in cmd/kvbench.
//
//	kvload -mix update-heavy -addr host0:7070
//
// Mixes: read-heavy (95/5), update-heavy (50/50), scan-heavy,
// hotspot (Zipfian, -theta), delete-churn. Exit status: 0 when every
// step ran operations and none failed, 1 on a connect or load failure,
// a failed operation or an empty step, 2 on a usage error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"scalekv/internal/cluster"
	"scalekv/internal/transport"
	"scalekv/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("kvload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		mixName   = fs.String("mix", "", "workload mix: "+workload.MixNames())
		addrs     = fs.String("addr", "", "comma-separated seed addresses of the running ring; any one live member suffices")
		clients   = fs.String("clients", "1,2,4,8", "comma-separated client-goroutine counts, one sweep step each")
		duration  = fs.Duration("duration", 5*time.Second, "measured duration per sweep step")
		keys      = fs.Int64("keys", 50_000, "partition-key count")
		cells     = fs.Int("cells", 4, "cells (clustering keys) per partition")
		valueSize = fs.Int("value", 128, "value bytes per cell")
		theta     = fs.Float64("theta", 0, "Zipfian skew override for skewed mixes (0 = mix default)")
		seed      = fs.Int64("seed", 42, "deterministic traffic seed")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: kvload -mix <name> -addr <host:port,...> [flags]\n")
		fmt.Fprintf(stderr, "mixes: %s\n", workload.MixNames())
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *mixName == "" || *addrs == "" {
		fs.Usage()
		return 2
	}
	mix, err := workload.MixByName(*mixName, *theta)
	if err != nil {
		fmt.Fprintln(stderr, "kvload:", err)
		return 2
	}
	steps, err := parseClients(*clients)
	if err != nil {
		fmt.Fprintln(stderr, "kvload:", err)
		return 2
	}
	if *duration <= 0 {
		fmt.Fprintln(stderr, "kvload: -duration must be positive")
		return 2
	}

	// The address list is only a seed set: Connect discovers the real
	// ring from whichever member answers, and ReplicationFactor 0 adopts
	// the ring's own factor.
	seeds := strings.Split(*addrs, ",")
	for i := range seeds {
		seeds[i] = strings.TrimSpace(seeds[i])
	}
	cli, err := cluster.Connect(seeds, cluster.ClientOptions{
		Dialer: tcpDial,
	})
	if err != nil {
		fmt.Fprintln(stderr, "kvload:", err)
		return 1
	}
	defer cli.Close()

	// Preload every cell, so the measured steps run against a populated
	// store: reads hit data, updates are overwrites.
	ks := workload.NewKeyspace(*keys, *cells, *valueSize, *seed)
	fmt.Fprintf(stdout, "kvload: %s on %d nodes (rf=%d): loading %d cells...\n",
		mix.Name, cli.Ring().Size(), cli.ReplicationFactor(), ks.Cells())
	loadStart := time.Now()
	loaded, err := workload.LoadKeyspace(cli, ks, 256)
	if err != nil {
		fmt.Fprintln(stderr, "kvload: load:", err)
		return 1
	}
	loadSec := time.Since(loadStart).Seconds()
	fmt.Fprintf(stdout, "kvload: loaded %d cells in %.2fs (%.0f cells/sec)\n", loaded, loadSec, float64(loaded)/loadSec)

	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	failed := false
	for _, n := range steps {
		before := cli.Failovers.Load()
		res := workload.RunStep(cli, mix, ks, workload.StepConfig{
			Clients: n, Duration: *duration, Seed: *seed + int64(n),
		})
		h := res.Hist
		fmt.Fprintf(stdout, "kvload: %3d clients: %8.0f ops/sec  p50 %6.0fµs  p95 %6.0fµs  p99 %6.0fµs  p99.9 %6.0fµs  max %.0fµs  (%d ops, %d errors, %d failovers)\n",
			n, float64(res.Ops)/res.Elapsed.Seconds(), us(h.Percentile(50)), us(h.Percentile(95)), us(h.Percentile(99)),
			us(h.Percentile(99.9)), us(h.Max()), res.Ops, res.Errors, cli.Failovers.Load()-before)
		if res.Errors > 0 {
			fmt.Fprintf(stdout, "kvload:     first error: %v\n", res.FirstErr)
		}
		failed = failed || res.Errors > 0 || res.Ops == 0
	}
	if failed {
		return 1
	}
	return 0
}

func tcpDial(addr string) (*transport.Client, error) {
	conn, err := transport.DialTCP(addr, 0)
	if err != nil {
		return nil, err
	}
	return transport.NewClient(conn), nil
}

func parseClients(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -clients entry %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

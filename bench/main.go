// Command bench is scalekv's yardstick: five named workloads driven end
// to end through cluster.Client, each with its end-to-end metrics and,
// in a separate traced run, a per-layer cost ledger (wire, transport,
// cluster, storage, sstable, process). README.md says how to read it.
//
//	bash bench/run.sh                                  # all five, end to end
//	bash bench/run.sh -trace 1                         # all five, the ledger
//	bash bench/run.sh -repeat 3                        # three sets, spread against the bounds
//	bash bench/run.sh -workload scan-tcp -seed 7 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// warmup precedes every measured window: long enough for the block
// cache and the connections' worker pools to fill.
const warmup = 2 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload name, or all")
	seed := fs.Uint64("seed", 1, "workload seed: same seed, same ops and values")
	seconds := fs.Int("seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer ledger")
	repeat := fs.Int("repeat", 1, "run the set this many times in fresh clusters and check the spread against BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || *repeat < 1 || *trace < 0 || *trace > 1 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "bench: -seconds and -repeat must be at least 1, -trace 0 or 1, and no other arguments")
		return 2
	}
	specs := workloads
	if *workload != "all" {
		sp, err := workloadByName(*workload)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		specs = []*spec{sp}
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	cfg := config{
		seed:    *seed,
		warmup:  warmup,
		measure: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		serial:  serialOps,
		outDir:  filepath.Join(root, "bench", "out"),
		scratch: filepath.Join(root, ".bench_build", "data", fmt.Sprint(os.Getpid())),
	}
	defer os.RemoveAll(cfg.scratch)

	var results []*result
	bad := false
	for set := range *repeat {
		for _, sp := range specs {
			r, err := runWorkload(sp, cfg)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", sp.name, err)
				return 1
			}
			r.Set = set
			r.print(stdout)
			results = append(results, r)
			bad = bad || !r.Correct
		}
	}
	if err := writeResults(cfg.outDir, root, cfg, results); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *repeat > 1 {
		bounds, err := readBounds(root)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		bad = !printSpread(stdout, results, bounds) || bad
	}
	if len(results) == 1 {
		// The last line is the machine-readable result of a single run.
		line, _ := json.Marshal(results[0].summary())
		fmt.Fprintln(stdout, string(line))
	}
	if bad {
		return 1
	}
	return 0
}

// findRoot locates the checkout: the directory holding BENCHMARK.json,
// which is the working directory under run.sh and its parent under
// `go run .` from bench/.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found: run from the checkout root or from bench/")
}

// config is what one run of one workload needs beyond its spec.
type config struct {
	seed            uint64
	warmup, measure time.Duration
	trace           bool
	serial          int    // ops per serial pass of the traced run
	outDir, scratch string // span files and results; cluster data
}

// result is one run of one workload.
type result struct {
	Workload  string   `json:"workload"`
	Set       int      `json:"set"`
	Seed      uint64   `json:"seed"`
	Transport string   `json:"transport"`
	Flush     string   `json:"flush_policy"`
	Traced    bool     `json:"traced"`
	Correct   bool     `json:"correct"`
	Attempted uint64   `json:"attempted"`
	Failed    uint64   `json:"failed"`
	Samples   uint64   `json:"latency_samples"`
	EndToEnd  []metric `json:"end_to_end"`
	Derived   []metric `json:"derived"`             // failed_share, cells_per_s
	Layers    []metric `json:"per_layer,omitempty"` // traced runs only
	Invalid   []string `json:"invalid,omitempty"`
	FirstErr  string   `json:"first_error,omitempty"`

	table string
}

// runWorkload sets the workload up (several times when timing set-up,
// keeping the last), runs the traced passes if asked, then the warm-up
// and the measured window, and tears everything down.
func runWorkload(sp *spec, cfg config) (*result, error) {
	setups := sp.setups
	if cfg.trace {
		setups = 1 // setup_s belongs to the timed run
	}
	var b *bed
	var setupTimes []float64
	for i := range setups {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, fmt.Errorf("close: %w", err)
			}
		}
		t0 := time.Now()
		var err error
		if b, err = setup(sp, cfg.seed, filepath.Join(cfg.scratch, fmt.Sprintf("%s-%d", sp.name, i))); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer b.close()

	r := &result{
		Workload: sp.name, Seed: cfg.seed, Transport: sp.transport(), Traced: cfg.trace,
		Flush: fmt.Sprintf("wal=on sync=never flush_threshold=%s block_cache=%s", sizeOrDefault(sp.storage.FlushThreshold, "4MB"), sizeOrDefault(sp.storage.BlockCacheBytes, "64MB")),
	}
	var total tally
	if cfg.trace {
		led, err := b.ledger(cfg.serial, cfg.outDir, cfg.scratch)
		if err != nil {
			return nil, err
		}
		total = led.tally
		r.Layers, r.table = led.metrics, led.table
	}
	w := b.window(cfg.warmup, cfg.measure)
	total.attempted += w.attempted
	total.failed += w.failed
	if total.firstErr == nil {
		total.firstErr = w.firstErr
	}

	r.EndToEnd = append(w.endToEnd(), metric{"setup_s", median(setupTimes), "s"})
	r.Derived = []metric{
		{"failed_share", ratio(float64(total.failed), float64(total.attempted)), "ratio"},
		{"cells_per_s", float64(w.cells) / w.seconds, "1/s"},
	}
	if cfg.trace {
		r.Layers = append(r.Layers, w.layers(sp)...)
	}
	r.Attempted, r.Failed, r.Samples = total.attempted, total.failed, w.h.count
	if sp.guards.minCompactions > 0 {
		r.table += fmt.Sprintf("  guards: fewest compactions on a node %d; storage.write_amp by half of the window %.3f, %.3f\n",
			minNodeCompactions(w.before, w.after), writeAmp(w.before, w.mid), writeAmp(w.mid, w.after))
	}
	if sp.guards.maxHit > 0 {
		r.table += fmt.Sprintf("  guards: block-cache hit ratio %.4f\n", hitRatio(w.before, w.after))
	}
	r.Invalid = w.validity(sp)
	if total.firstErr != nil {
		r.FirstErr = total.firstErr.Error()
	}
	r.Correct = r.Failed == 0 && len(r.Invalid) == 0 && r.Attempted > 0
	return r, nil
}

func sizeOrDefault(n int64, def string) string {
	if n == 0 {
		return def
	}
	return fmt.Sprintf("%dKB", n>>10)
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func (r *result) print(w io.Writer) {
	mode := "timed"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s  set %d  seed %d  %s  %s run\n", r.Workload, r.Set, r.Seed, r.Transport, mode)
	for _, m := range slices.Concat(r.EndToEnd, r.Derived, r.Layers) {
		note := ""
		switch m.Name {
		case "p50_us", "p99_us":
			note = fmt.Sprintf("  (n=%d)", r.Samples)
		case "failed_share":
			note = fmt.Sprintf("  (%d of %d)", r.Failed, r.Attempted)
		}
		fmt.Fprintf(w, "  %-34s %16.4f %s%s\n", m.Name, m.Value, m.Unit, note)
	}
	if r.table != "" {
		fmt.Fprint(w, r.table)
	}
	if r.FirstErr != "" {
		fmt.Fprintf(w, "  FIRST ERROR: %s\n", r.FirstErr)
	}
	for _, why := range r.Invalid {
		fmt.Fprintf(w, "  INVALID: %s\n", why)
	}
}

// summary is the one-line result of a single run: the end-to-end
// metrics of a timed run, the per-layer metrics of a traced one.
func (r *result) summary() map[string]any {
	metrics := map[string]any{}
	list := r.EndToEnd
	if r.Traced {
		list = r.Layers
	}
	for _, m := range list {
		metrics[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics}
}

// writeResults stamps the box and the build onto the result set, so a
// number can be traced to what produced it.
func writeResults(outDir, root string, cfg config, results []*result) error {
	rev := "unknown"
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil { // else git would search the parents
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			rev = strings.TrimSpace(string(out))
		}
	}
	doc := map[string]any{
		"cpu_model":      cpuModel(),
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go_version":     runtime.Version(),
		"git_rev":        rev,
		"seed":           cfg.seed,
		"clients":        loopClients,
		"ring_nodes":     ringNodes,
		"warmup_s":       cfg.warmup.Seconds(),
		"window_seconds": cfg.measure.Seconds(),
		"results":        results,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "result.json"), append(data, '\n'), 0o644)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// readBounds returns, per end-to-end metric, the share by which it may
// worsen, as BENCHMARK.json fixes it.
func readBounds(root string) (map[string]float64, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bounds := map[string]float64{}
	for _, m := range doc.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

// printSpread prints, per workload and bounded metric, the median over
// the sets and the min-max spread as a share of it, and reports whether
// every spread stayed within its bound.
func printSpread(w io.Writer, results []*result, bounds map[string]float64) bool {
	type key struct{ workload, metric string }
	values := map[key][]float64{}
	var order []key
	for _, r := range results {
		for _, m := range r.EndToEnd {
			k := key{r.Workload, m.Name}
			if _, seen := values[k]; !seen {
				order = append(order, k)
			}
			values[k] = append(values[k], m.Value)
		}
	}
	ok := true
	fmt.Fprintf(w, "== spread over %d sets\n", len(values[order[0]]))
	fmt.Fprintf(w, "  %-20s %-10s %14s %14s %14s %8s %8s\n", "workload", "metric", "median", "min", "max", "spread", "bound")
	for _, k := range order {
		vs := values[k]
		lo, hi, med := slices.Min(vs), slices.Max(vs), median(vs)
		spread, bound := ratio(hi-lo, med), bounds[k.metric]
		verdict := ""
		if spread > bound {
			verdict, ok = "  EXCEEDS BOUND", false
		}
		fmt.Fprintf(w, "  %-20s %-10s %14.4f %14.4f %14.4f %8.4f %8.2f%s\n", k.workload, k.metric, med, lo, hi, spread, bound, verdict)
	}
	return ok
}

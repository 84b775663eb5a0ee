// Command kvbench regenerates every figure of the paper's evaluation
// — the reproduction record, and only that. Benchmarks of the system
// itself are `bash bench/run.sh` (BENCHMARK.json); cmd/kvload drives
// load at a deployed ring.
//
// Usage:
//
//	kvbench [flags] <experiment>...
//	kvbench all
//
// Experiments: fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11
// codecs. Each prints the same series the paper plots, plus notes
// comparing against the paper's reported numbers.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"scalekv/internal/figures"
)

func main() {
	seed := flag.Int64("seed", 42, "seed for placement and service noise")
	trials := flag.Int("trials", 100000, "Monte-Carlo trials for fig3")
	tsv := flag.Bool("tsv", false, "emit tab-separated values instead of aligned tables")
	outDir := flag.String("out", "", "also write each table as <out>/<id>.tsv")
	quick := flag.Bool("quick", false, "shrink the real-engine experiments (fig6/fig7) for fast runs")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: kvbench [flags] <experiment>...\n")
		fmt.Fprintf(os.Stderr, "experiments: %s profile all\n", strings.Join(order, " "))
		flag.PrintDefaults()
	}
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if len(args) == 1 && args[0] == "all" {
		args = order
	}
	for _, name := range args {
		if name == "profile" {
			// The Figure 4 picture itself: ASCII busy/idle segments.
			fmt.Print(figures.Fig4Profiles(*seed, 100))
			continue
		}
		tab, err := run(name, *seed, *trials, *quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kvbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		if *tsv {
			fmt.Print(tab.TSV())
		} else {
			fmt.Println(tab.Render())
		}
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "kvbench:", err)
				os.Exit(1)
			}
			path := filepath.Join(*outDir, tab.ID+".tsv")
			if err := os.WriteFile(path, []byte(tab.TSV()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "kvbench:", err)
				os.Exit(1)
			}
		}
	}
}

var order = []string{
	"fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
	"fig7", "fig8", "fig9", "fig10", "fig11", "codecs",
}

func run(name string, seed int64, trials int, quick bool) (*figures.Table, error) {
	switch name {
	case "fig1":
		return figures.Fig1(seed), nil
	case "fig2":
		return figures.Fig2(seed), nil
	case "fig3":
		return figures.Fig3(seed, trials), nil
	case "fig4":
		return figures.Fig4(seed), nil
	case "fig5":
		return figures.Fig5(seed), nil
	case "fig6":
		opts := figures.Fig6Options{Seed: seed}
		if quick {
			opts = figures.Fig6Options{Seed: seed, MaxRow: 4000, Strata: 8, PerStratum: 3, Reps: 2}
		}
		return figures.Fig6(opts)
	case "fig7":
		opts := figures.Fig7Options{Seed: seed}
		if quick {
			opts = figures.Fig7Options{Seed: seed, MaxRow: 4000, Strata: 5, PerStratum: 4, TaskFactor: 4}
		}
		return figures.Fig7(opts)
	case "fig8":
		return figures.Fig8(seed), nil
	case "fig9":
		return figures.Fig9(), nil
	case "fig10":
		return figures.Fig10(), nil
	case "fig11":
		return figures.Fig11(), nil
	case "codecs":
		return figures.Codecs(), nil
	default:
		return nil, fmt.Errorf("unknown experiment %q", name)
	}
}

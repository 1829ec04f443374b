// Command figures regenerates every figure of the paper's evaluation on the
// simulated testbed and prints them as text tables (optionally also CSV
// files).
//
// Usage:
//
//	figures [-only figN] [-csv DIR] [-scale N] [-j N] [-shards N] [-list]
//
// -scale thins the parameter sweeps (2 = every other point) for quick runs;
// the default reproduces the full sweeps. -j sets how many experiment worlds
// run concurrently (default GOMAXPROCS); every world is an independent
// simulation, so the output is byte-identical at any -j. -shards splits each
// world of the shard-aware families (fig1, topo, faults) across N engines
// via the conservative parallel runtime (internal/pdes); 0 (the default)
// and 1 both run each world on one engine, and the output is byte-identical
// at any -shards. -list prints the experiment catalogue as JSON and exits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/parallel"
)

func main() {
	only := flag.String("only", "", "run a single experiment ("+core.IDList()+")")
	csvDir := flag.String("csv", "", "also write one CSV per figure into this directory")
	scale := flag.Int("scale", 1, "sweep thinning factor (1 = full paper sweeps)")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "concurrent experiment worlds (1 = sequential)")
	shards := flag.Int("shards", 0, "engines per world for shard-aware families (0 and 1 = one engine; output is identical at any value)")
	progress := flag.Bool("progress", false, "print live world-completion and ETA lines to stderr (stdout is unaffected)")
	list := flag.Bool("list", false, "print the experiment catalogue as JSON and exit")
	flag.Parse()

	if *list {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(core.Catalogue()); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	parallel.SetJobs(*jobs)
	bench.SetShards(*shards)
	parallel.SetWorldShards(*shards)
	if *progress {
		installProgress()
	}

	if *only != "" {
		if _, ok := core.Find(*only); !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; valid: %s\n", *only, core.IDList())
			os.Exit(2)
		}
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if err := core.RunAll(os.Stdout, *only, *csvDir, *scale); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, parallel.Summary())
}

// installProgress wires the stderr progress stream: one line per experiment
// from the catalogue, and world-completion lines with a wall-clock ETA from
// the worker pool. Everything goes to stderr; stdout stays byte-identical
// with or without -progress.
func installProgress() {
	core.OnExperiment = func(e core.Experiment, i, n int) {
		fmt.Fprintf(os.Stderr, "[%d/%d] %s: %s\n", i+1, n, e.ID, e.Title)
	}
	var batchStart time.Time // guarded by the pool's stats lock
	parallel.SetProgress(func(done, total int) {
		if done == 1 {
			batchStart = time.Now()
		}
		// Throttle long sweeps to ~20 lines per batch.
		step := total / 20
		if step < 1 {
			step = 1
		}
		if done%step != 0 && done != total {
			return
		}
		line := fmt.Sprintf("  %d/%d worlds", done, total)
		if s := parallel.WorldShards(); s > 0 {
			line = fmt.Sprintf("  %d/%d worlds (x%d shards)", done, total, s)
		}
		if done > 1 && done < total {
			// The observed per-world rate already folds in however many
			// cores each sharded world actually used, so the ETA needs no
			// shard-count correction — it is labeled above instead.
			perWorld := time.Since(batchStart) / time.Duration(done-1)
			line += fmt.Sprintf(", eta %s", (perWorld * time.Duration(total-done)).Round(time.Second))
		}
		fmt.Fprintln(os.Stderr, line)
	})
}

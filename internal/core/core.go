// Package core is the top of the reproduction: it catalogues every
// experiment of the paper's evaluation (Figures 1-8 of Rashti & Afsahi,
// "10-Gigabit iWARP Ethernet: Comparative Performance Analysis with
// InfiniBand and Myrinet-10G"), runs them on the simulated testbed, renders
// the results, and checks the calibration anchors against the values the
// paper reports.
//
// cmd/figures regenerates every figure through RunAll; cmd/netbench runs a
// single experiment; cmd/calibrate prints the anchor table that
// EXPERIMENTS.md records.
package core

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/logp"
	"repro/internal/parallel"
	"repro/internal/sim"
)

// Experiment is one table/figure of the paper.
type Experiment struct {
	// ID is the figure identifier used by -only flags ("fig1", "fig2", ...).
	ID string
	// Title matches the paper's caption.
	Title string
	// Paper summarizes what the paper reports for this experiment.
	Paper string
	// Run produces the figure(s). Scale (>= 1) shrinks sweeps for quick
	// runs: 1 = full paper sweep, larger values measure fewer points.
	Run func(scale int) []bench.Figure
}

// latencySizes covers 1B-4MB like the paper's log-scale axes.
func latencySizes(scale int) []int {
	all := bench.Pow2Sizes(1, 4<<20)
	return thin(all, scale)
}

func bandwidthSizes(scale int) []int {
	all := bench.Pow4Sizes(1, 4<<20)
	return thin(all, scale)
}

func thin(xs []int, scale int) []int {
	if scale <= 1 {
		return xs
	}
	var out []int
	for i := 0; i < len(xs); i += scale {
		out = append(out, xs[i])
	}
	if len(out) == 0 || out[len(out)-1] != xs[len(xs)-1] {
		out = append(out, xs[len(xs)-1])
	}
	return out
}

func thinConns(scale int) []int {
	if scale <= 1 {
		return bench.Fig2Conns
	}
	return []int{1, 4, 16, 64, 256}
}

// Experiments returns the full catalogue in the paper's order.
func Experiments() []Experiment {
	return []Experiment{
		{
			ID:    "fig1",
			Title: "User-level ping-pong latency and bandwidth",
			Paper: "latency: MXoM ~3.0us < MXoE ~3.3us < IB 4.53us < iWARP 9.78us; " +
				"bandwidth: IB ~970 MB/s (97% of 1 GB/s), iWARP ~880-930 MB/s (87% of internal PCI-X), Myrinet <=75% of line rate",
			Run: func(scale int) []bench.Figure {
				return []bench.Figure{
					bench.Fig1Latency(latencySizes(scale)),
					bench.Fig1Bandwidth(bandwidthSizes(scale)),
				}
			},
		},
		{
			ID:    "fig2",
			Title: "Multi-connection normalized latency and throughput (iWARP vs IB)",
			Paper: "iWARP improves up to 128 connections then flattens (pipelined engine); " +
				"IB improves only to 8 connections then degrades and flattens (QP context cache); " +
				"IB small-message throughput drops past 8 connections, iWARP sustains; both equivalent >= 4KB",
			Run: func(scale int) []bench.Figure {
				var figs []bench.Figure
				for _, kind := range cluster.VerbsKinds {
					figs = append(figs,
						bench.Fig2Latency(kind, thin(bench.Fig2LatencySizes, scale), thinConns(scale), 6),
						bench.Fig2Throughput(kind, thin(bench.Fig2ThroughputSizes, scale), thinConns(scale), 10),
					)
				}
				return figs
			},
		},
		{
			ID:    "fig3",
			Title: "MPI ping-pong latency and overhead over user level",
			Paper: "short-message MPI latency: iWARP ~10.7us, IB ~4.8us, MXoM ~3.3us, MXoE ~3.6us; MPICH-MX has the lowest overhead",
			Run: func(scale int) []bench.Figure {
				return []bench.Figure{
					bench.Fig3Latency(latencySizes(scale)),
					bench.Fig3Overhead(bandwidthSizes(scale)),
				}
			},
		},
		{
			ID:    "fig4",
			Title: "MPI unidirectional / bidirectional / both-way bandwidth",
			Paper: "eager/rendezvous dips between 4-8KB (iWARP), at 8KB (IB, steepest), after 32KB (Myrinet); " +
				"both-way: iWARP ~1950 MB/s > IB ~1780 MB/s (89% of 2 GB/s) > Myrinet ~1400 MB/s (70%); IB wins bandwidth overall",
			Run: func(scale int) []bench.Figure {
				return []bench.Figure{
					bench.Fig4(bench.Unidirectional, bandwidthSizes(scale)),
					bench.Fig4(bench.Bidirectional, bandwidthSizes(scale)),
					bench.Fig4(bench.BothWay, bandwidthSizes(scale)),
				}
			},
		},
		{
			ID:    "fig5",
			Title: "Parameterized LogP: g(m), Os(m), Or(m)",
			Paper: "g(1B): ~2us iWARP and Myrinet, ~3us IB; Os/Or ~1us or less for short messages; " +
				"Or jumps at the rendezvous switch for iWARP and IB but stays flat for Myrinet (progression thread)",
			Run: func(scale int) []bench.Figure {
				sizes := thin(bench.Pow4Sizes(1, 1<<20), scale)
				return []bench.Figure{
					bench.Fig5Gap(sizes),
					bench.Fig5Os(sizes),
					bench.Fig5Or(sizes),
				}
			},
		},
		{
			ID:    "fig6",
			Title: "Buffer re-use effect on latency",
			Paper: "<10% effect below 256B; eager-size ratios <=1.8 (iWARP), 1.55 (IB), 1.53 (Myrinet); " +
				"rendezvous peaks ~4.3 (IB), ~2.0 at 256KB (iWARP), ~1.4 at 1MB (Myrinet); disabling the MX reg cache removes the effect",
			Run: func(scale int) []bench.Figure {
				sizes := thin(bench.Pow4Sizes(64, 4<<20), scale)
				return []bench.Figure{
					bench.Fig6(sizes),
					bench.Fig6NoRegCache(thin(bench.Pow4Sizes(16<<10, 4<<20), scale)),
				}
			},
		},
		{
			ID:    "fig7",
			Title: "Unexpected-message queue size effect",
			Paper: "small/medium messages considerably affected, large ones barely (especially iWARP); MPICH-MX is the best",
			Run: func(scale int) []bench.Figure {
				var figs []bench.Figure
				for _, kind := range cluster.Kinds {
					figs = append(figs, bench.Fig7(kind, thin(bench.Fig7Sizes, scale), thin(bench.Fig7Depths, scale)))
				}
				return figs
			},
		},
		{
			ID:    "fig8",
			Title: "Receive (posted) queue size effect",
			Paper: "impact more than twice the unexpected-queue effect for small messages; best is MVAPICH at ~2.5x; Myrinet is the worst (NIC-side matching)",
			Run: func(scale int) []bench.Figure {
				var figs []bench.Figure
				for _, kind := range cluster.Kinds {
					figs = append(figs, bench.Fig8(kind, thin(bench.Fig8Sizes, scale), thin(bench.Fig8Depths, scale)))
				}
				return figs
			},
		},
		{
			ID:    "appx",
			Title: "Hotspot, overlap and independent progress (the paper's unpublished appendix)",
			Paper: "measured but omitted for space (Section 6); the authors' Hot Interconnects 2007 paper reports Myrinet " +
				"overlapping and progressing independently (NIC-driven rendezvous) while the call-driven MPICH stacks do not",
			Run: func(scale int) []bench.Figure {
				sizes := thin(bench.Pow4Sizes(1<<10, 1<<20), scale)
				return []bench.Figure{
					bench.AppxOverlap(sizes),
					bench.AppxProgress(thin([]int{32 << 10, 128 << 10, 512 << 10}, scale)),
					bench.AppxHotspot(thin([]int{1 << 10, 16 << 10, 256 << 10}, scale)),
				}
			},
		},
		{
			ID:    "faults",
			Title: "Degraded-mode operation: frame loss, link flaps and incast congestion (fault-injection extension)",
			Paper: "beyond the paper's pristine testbed (Section 7 names applications as future work): the lossless fabrics " +
				"(IB, Myrinet) backpressure through faults while the Ethernet stacks lean on the offloaded TCP, so loss and " +
				"flaps cost iWARP retransmission timeouts where IB and MX only pay the outage itself",
			Run: func(scale int) []bench.Figure {
				rates := []float64{0, 0.001, 0.01, 0.05}
				durations := []sim.Time{100 * sim.Microsecond, 500 * sim.Microsecond, sim.Millisecond}
				if scale > 1 {
					rates = []float64{0, 0.01}
					durations = []sim.Time{100 * sim.Microsecond, sim.Millisecond}
				}
				return []bench.Figure{
					bench.FaultsFig1Latency(rates),
					bench.FaultsFig4Bandwidth(rates),
					bench.FaultsFlapRecovery(durations),
					bench.FaultsIncast(thin([]int{1 << 10, 16 << 10, 256 << 10}, scale)),
				}
			},
		},
		{
			ID:    "ext",
			Title: "Section 7 extensions: sockets, SDP and uDAPL",
			Paper: "named as future work (\"we intend to extend our study to include uDAPL, sockets, and applications\"); " +
				"expectation from the related work: RDMA/offloaded Ethernet clearly beats conventional kernel TCP, and uDAPL tracks raw verbs",
			Run: func(scale int) []bench.Figure {
				sizes := thin(bench.Pow4Sizes(64, 1<<20), scale)
				return []bench.Figure{
					bench.ExtSocketsLatency(thin(bench.Pow4Sizes(64, 64<<10), scale)),
					bench.ExtSocketsBandwidth(sizes),
					bench.ExtUDAPL(thin(bench.Pow4Sizes(64, 256<<10), scale)),
					bench.ExtScalingAlltoall(thin([]int{2, 4, 8, 12, 16}, scale), 1<<10),
					bench.ExtScalingAllgather(thin([]int{2, 4, 8, 12, 16}, scale), 4<<10),
				}
			},
		},
		{
			ID:    "breakdown",
			Title: "Critical-path latency attribution: host / NIC / wire / switch / stall (causal-tracing extension)",
			Paper: "the paper's Section 5-6 explanation, quantified: iWARP's latency gap over IB and Myrinet is host-side " +
				"and NIC protocol overhead (per-WR host costs, TOE segmentation, MPA/DDP processing), not wire time; at " +
				"bandwidth sizes IB runs wire-limited (~97% of link rate) while iWARP and Myrinet stay I/O-bus/engine-bound",
			Run: func(scale int) []bench.Figure {
				sizes := thin(bench.BreakdownSizes, scale)
				lsSizes := thin(bench.BreakdownLeafSpineSizes, scale)
				var figs []bench.Figure
				for _, kind := range cluster.Kinds {
					figs = append(figs, bench.BreakdownFigure(kind, sizes))
				}
				for _, kind := range cluster.Kinds {
					figs = append(figs, bench.BreakdownLeafSpineFigure(kind, lsSizes))
				}
				return figs
			},
		},
		{
			ID:    "topo",
			Title: "Multi-switch leaf-spine fabrics: collectives and halo exchange under oversubscription (topology extension)",
			Paper: "the paper's testbed hangs all four nodes off one switch; Section 7 asks how the stacks behave in a larger " +
				"testbed. Expectation: contention grows with trunk oversubscription for every stack, and iWARP's small-message " +
				"multiple-connection advantage over IB (Figure 2) persists at 64 ranks across switches",
			Run: func(scale int) []bench.Figure {
				ranks := thin(bench.TopoRanks, scale)
				ratios := thin(bench.TopoRatios, scale)
				grids := bench.TopoHaloGrids
				if scale > 1 {
					thinned := grids[:0:0]
					for i := 0; i < len(grids); i += scale {
						thinned = append(thinned, grids[i])
					}
					if thinned[len(thinned)-1] != grids[len(grids)-1] {
						thinned = append(thinned, grids[len(grids)-1])
					}
					grids = thinned
				}
				figs := bench.TopoAlltoall(ranks, ratios, 512)
				figs = append(figs,
					bench.TopoAllgather(ranks, ratios, 1<<10),
					bench.TopoAllreduce(ranks, ratios, 8<<10),
					bench.TopoHalo(grids, ratios, 2<<10),
				)
				return figs
			},
		},
		{
			ID:    "congestion",
			Title: "Multi-tenant background traffic: victim-collective slowdown under congestion control (congestion extension)",
			Paper: "beyond the paper's idle switch: a second tenant storms the fabric while the collective runs. Expectation: " +
				"the reacting stacks degrade smoothly instead of collapsing — iWARP's offloaded TCP backs off on ECN and loss " +
				"(DCQCN-style pacing), IB stalls on exhausted VL credits (lossless backpressure), MX throttles on its own " +
				"uplink backlog; slowdown grows with offered load and oversubscription",
			Run: func(scale int) []bench.Figure {
				ratios := thin(bench.CongestionRatios, scale)
				loads := bench.CongestionLoads
				if scale > 1 {
					loads = []float64{0, 0.3}
				}
				return bench.CongestionFigures(bench.CongestionRanks, ratios, loads, bench.CongestionMsg)
			},
		},
	}
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// CatalogueEntry is the machine-readable description of one experiment:
// everything about it except the Run function. `figures -list` prints the
// catalogue as JSON and the simd job server serves it on /catalogue, so
// clients discover valid experiment IDs instead of hardcoding them.
type CatalogueEntry struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	Paper string `json:"paper"`
}

// Catalogue returns the experiment catalogue in the paper's order.
func Catalogue() []CatalogueEntry {
	es := Experiments()
	out := make([]CatalogueEntry, len(es))
	for i, e := range es {
		out[i] = CatalogueEntry{ID: e.ID, Title: e.Title, Paper: e.Paper}
	}
	return out
}

// IDs returns every experiment ID in catalogue order.
func IDs() []string {
	es := Experiments()
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.ID
	}
	return out
}

// IDList renders the valid experiment IDs for flag help and error messages,
// so the list can never drift from the catalogue.
func IDList() string { return strings.Join(IDs(), ", ") }

// RunAll runs every experiment (or just `only`, if non-empty), writing text
// tables to w and, when csvDir is non-empty, one CSV per figure.
// onExperiment, when non-nil, is called before each experiment starts, with
// the experiment and its position in the run; cmd/figures -progress uses it
// for stderr progress lines, so it must not write to w.
func RunAll(w io.Writer, only string, csvDir string, scale int, onExperiment func(e Experiment, i, n int)) error {
	var todo []Experiment
	for _, e := range Experiments() {
		if only != "" && e.ID != only {
			continue
		}
		todo = append(todo, e)
	}
	for i, e := range todo {
		if onExperiment != nil {
			onExperiment(e, i, len(todo))
		}
		var onFigure func(fig bench.Figure) error
		if csvDir != "" {
			onFigure = func(fig bench.Figure) error {
				path := filepath.Join(csvDir, fig.ID+".csv")
				if err := os.WriteFile(path, []byte(fig.CSV()), 0o644); err != nil {
					return fmt.Errorf("writing %s: %w", path, err)
				}
				return nil
			}
		}
		if err := RunExperiment(w, e, scale, onFigure); err != nil {
			return err
		}
	}
	return nil
}

// RunExperiment runs one experiment, writing its text tables to w in the
// same format RunAll uses. onFigure, when non-nil, is called with every
// rendered figure (in order) after its table is written — RunAll uses it to
// emit CSV files, the simd job server to collect CSV payloads for the
// result cache. A non-nil error from onFigure aborts the run.
func RunExperiment(w io.Writer, e Experiment, scale int, onFigure func(fig bench.Figure) error) error {
	fmt.Fprintf(w, "==== %s: %s ====\n", e.ID, e.Title)
	fmt.Fprintf(w, "paper: %s\n\n", e.Paper)
	for _, fig := range e.Run(scale) {
		fmt.Fprintln(w, fig.Table())
		if onFigure != nil {
			if err := onFigure(fig); err != nil {
				return err
			}
		}
	}
	return nil
}

// Anchor is one calibration point: a headline number the paper states,
// against which the model is validated.
type Anchor struct {
	Name      string
	Unit      string
	Paper     float64
	Tolerance float64 // relative, e.g. 0.15 = +/-15%
	Measure   func() float64
}

// Anchors returns the calibration table (the quantitative claims of the
// paper's abstract and Sections 5-6).
func Anchors() []Anchor {
	return []Anchor{
		{"user-level latency iWARP (4B)", "us", 9.78, 0.10,
			func() float64 { return bench.UserLatency(cluster.IWARP, 4, 30).Micros() }},
		{"user-level latency IB (4B)", "us", 4.53, 0.10,
			func() float64 { return bench.UserLatency(cluster.IB, 4, 30).Micros() }},
		{"user-level latency MXoM (4B)", "us", 3.0, 0.15,
			func() float64 { return bench.UserLatency(cluster.MXoM, 4, 30).Micros() }},
		{"user-level latency MXoE (4B)", "us", 3.3, 0.15,
			func() float64 { return bench.UserLatency(cluster.MXoE, 4, 30).Micros() }},
		{"user-level bandwidth IB (1MB)", "MB/s", 970, 0.05,
			func() float64 { return float64(1<<20) / bench.UserLatency(cluster.IB, 1<<20, 4).Micros() }},
		{"user-level bandwidth iWARP (1MB)", "MB/s", 905, 0.08,
			func() float64 { return float64(1<<20) / bench.UserLatency(cluster.IWARP, 1<<20, 4).Micros() }},
		{"MPI latency iWARP (4B)", "us", 10.7, 0.10,
			func() float64 { return bench.MPILatency(cluster.IWARP, 4, 30).Micros() }},
		{"MPI latency IB (4B)", "us", 4.8, 0.10,
			func() float64 { return bench.MPILatency(cluster.IB, 4, 30).Micros() }},
		{"MPI latency MXoM (4B)", "us", 3.3, 0.10,
			func() float64 { return bench.MPILatency(cluster.MXoM, 4, 30).Micros() }},
		{"MPI latency MXoE (4B)", "us", 3.6, 0.10,
			func() float64 { return bench.MPILatency(cluster.MXoE, 4, 30).Micros() }},
		{"MPI both-way bandwidth iWARP (1MB)", "MB/s", 1950, 0.08,
			func() float64 { return bench.MPIBandwidth(cluster.IWARP, bench.BothWay, 1<<20, 3) }},
		{"MPI both-way bandwidth IB (1MB)", "MB/s", 1780, 0.05,
			func() float64 { return bench.MPIBandwidth(cluster.IB, bench.BothWay, 1<<20, 3) }},
		{"MPI both-way bandwidth Myrinet (1MB)", "MB/s", 1400, 0.05,
			func() float64 { return bench.MPIBandwidth(cluster.MXoM, bench.BothWay, 1<<20, 3) }},
		{"LogP gap iWARP (1B)", "us", 2.0, 0.50,
			func() float64 { return logp.Gap(cluster.IWARP, 1, 64).Micros() }},
		{"LogP gap IB (1B)", "us", 3.0, 0.25,
			func() float64 { return logp.Gap(cluster.IB, 1, 64).Micros() }},
		{"LogP gap Myrinet (1B)", "us", 2.0, 0.25,
			func() float64 { return logp.Gap(cluster.MXoM, 1, 64).Micros() }},
		{"buffer re-use peak IB", "ratio", 4.3, 0.15,
			func() float64 { return bench.BufferReuseRatio(cluster.IB, 1<<20) }},
		{"buffer re-use iWARP @256KB", "ratio", 2.0, 0.15,
			func() float64 { return bench.BufferReuseRatio(cluster.IWARP, 256<<10) }},
		{"buffer re-use Myrinet @1MB", "ratio", 1.4, 0.10,
			func() float64 { return bench.BufferReuseRatio(cluster.MXoM, 1<<20) }},
		{"receive-queue ratio IB (16B, 1024 deep)", "ratio", 2.5, 0.15,
			func() float64 {
				empty := bench.ReceiveQueueLatency(cluster.IB, 16, 0, 10)
				loaded := bench.ReceiveQueueLatency(cluster.IB, 16, 1024, 10)
				return float64(loaded) / float64(empty)
			}},
	}
}

// AnchorResult is one evaluated calibration point.
type AnchorResult struct {
	Anchor
	Measured float64
	Within   bool
}

// CheckAnchors evaluates every anchor. Each anchor's Measure builds its own
// worlds, so the table evaluates on the worker pool, results landing in
// table order regardless of which anchor finishes first.
func CheckAnchors() []AnchorResult {
	anchors := Anchors()
	out := make([]AnchorResult, len(anchors))
	if err := parallel.For(len(anchors), func(i int) error {
		a := anchors[i]
		m := a.Measure()
		rel := (m - a.Paper) / a.Paper
		if rel < 0 {
			rel = -rel
		}
		out[i] = AnchorResult{Anchor: a, Measured: m, Within: rel <= a.Tolerance}
		return nil
	}); err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
	return out
}

// FormatAnchors renders anchor results as an aligned table.
func FormatAnchors(rs []AnchorResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-45s %8s %9s %9s  %s\n", "anchor", "unit", "paper", "measured", "status")
	for _, r := range rs {
		status := "OK"
		if !r.Within {
			status = fmt.Sprintf("OUT (tol %.0f%%)", r.Tolerance*100)
		}
		fmt.Fprintf(&b, "%-45s %8s %9.2f %9.2f  %s\n", r.Name, r.Unit, r.Paper, r.Measured, status)
	}
	return b.String()
}

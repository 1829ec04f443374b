package bench

import (
	"runtime"
	"testing"

	"repro/internal/causal"
	"repro/internal/cluster"
	"repro/internal/logp"
	"repro/internal/parallel"
	"repro/internal/sim"
)

func hostNIC(rep *causal.Report) int64 { return rep.Buckets[causal.Host] + rep.Buckets[causal.NIC] }

func share(rep *causal.Report, b causal.Bucket) float64 {
	return float64(rep.Buckets[b]) / float64(rep.Total())
}

// TestBreakdownQualitativeFinding pins the paper's explanation of its own
// headline numbers in the attribution layer:
//
//   - iWARP's short-message latency gap over IB and Myrinet is host-side
//     and NIC protocol overhead (per-WR host costs, TOE segmentation,
//     MPA/DDP processing), not wire or switch time;
//   - IB's large-message transfer runs wire-limited (the paper measures
//     ~97% of link rate), so its bandwidth-size attribution is
//     wire-dominated, while iWARP and Myrinet stay engine/DMA-bound
//     (the paper: ~87% of internal PCI-X, <=75% of line rate).
func TestBreakdownQualitativeFinding(t *testing.T) {
	const small, large = 4, 1 << 20
	reps := map[cluster.Kind]*causal.Report{}
	for _, kind := range cluster.Kinds {
		rep, err := MPIBreakdown(kind, small)
		if err != nil {
			t.Fatalf("%s %dB: %v", kind, small, err)
		}
		reps[kind] = rep
	}
	iw := reps[cluster.IWARP]
	for _, other := range []cluster.Kind{cluster.IB, cluster.MXoM, cluster.MXoE} {
		o := reps[other]
		gap := iw.Total() - o.Total()
		if gap <= 0 {
			t.Fatalf("iWARP (%d ps) not slower than %s (%d ps) at %dB", iw.Total(), other, o.Total(), small)
		}
		hostGap := hostNIC(iw) - hostNIC(o)
		if float64(hostGap) < 0.75*float64(gap) {
			t.Errorf("iWARP-vs-%s gap is %d ps but only %d ps of it is host+NIC overhead; want >= 75%%",
				other, gap, hostGap)
		}
	}
	for _, kind := range []cluster.Kind{cluster.IB, cluster.MXoM, cluster.MXoE} {
		if s := share(reps[kind], causal.Host); s >= 0.35 {
			t.Errorf("%s %dB host share = %.0f%%, want < 35%% (host software is not where IB/MX spend latency)",
				kind, small, 100*s)
		}
	}

	ibLarge, err := MPIBreakdown(cluster.IB, large)
	if err != nil {
		t.Fatal(err)
	}
	if s := share(ibLarge, causal.Wire); s <= 0.60 {
		t.Errorf("IB %dB wire share = %.0f%%, want > 60%% (IB runs wire-limited at bandwidth sizes)", large, 100*s)
	}
	for _, kind := range []cluster.Kind{cluster.IWARP, cluster.MXoM} {
		rep, err := MPIBreakdown(kind, large)
		if err != nil {
			t.Fatal(err)
		}
		if nic, wire := share(rep, causal.NIC), share(rep, causal.Wire); nic <= wire {
			t.Errorf("%s %dB: NIC share %.0f%% <= wire share %.0f%%; want engine/DMA-bound", kind, large, 100*nic, 100*wire)
		}
	}
}

// TestBreakdownLogPCrossCheck anchors the attribution layer to the paper's
// LogP methodology (Section 6.3): parameters fitted from a breakdown report
// must agree with internal/logp's direct measurements.
//
//   - Short messages: the per-direction host time (Host bucket / 2) brackets
//     Os+Or — it contains exactly the send and receive overheads plus the
//     completion-detection tail the LogP fits subtract out.
//   - Bandwidth sizes: the one-way time (Total / 2) matches the saturation
//     gap g(m), because a 1MB transfer is pipeline-dominated.
func TestBreakdownLogPCrossCheck(t *testing.T) {
	for _, kind := range cluster.Kinds {
		rep, err := MPIBreakdown(kind, 4)
		if err != nil {
			t.Fatal(err)
		}
		fitted := sim.Time(rep.Buckets[causal.Host] / 2)
		direct := logp.SenderOverhead(kind, 4, 32) + logp.ReceiverOverhead(kind, 4, 8)
		if r := float64(fitted) / float64(direct); r < 0.8 || r > 1.6 {
			t.Errorf("%s 4B: breakdown host overhead %.2fus vs LogP Os+Or %.2fus (ratio %.2f, want 0.8..1.6)",
				kind, fitted.Micros(), direct.Micros(), r)
		}
	}
	for _, kind := range []cluster.Kind{cluster.IWARP, cluster.IB, cluster.MXoM} {
		const m = 1 << 20
		rep, err := MPIBreakdown(kind, m)
		if err != nil {
			t.Fatal(err)
		}
		fitted := sim.Time(rep.Total() / 2)
		direct := logp.Gap(kind, m, 64)
		if r := float64(fitted) / float64(direct); r < 0.85 || r > 1.15 {
			t.Errorf("%s %dB: breakdown one-way %.1fus vs LogP gap %.1fus (ratio %.2f, want 0.85..1.15)",
				kind, m, fitted.Micros(), direct.Micros(), r)
		}
	}
}

// TestBreakdownByteIdenticalAcrossJobs extends the -j identity contract to
// the traced breakdown family: causal tracing and blame run inside each
// world, so the rendered tables must not depend on pool width.
func TestBreakdownByteIdenticalAcrossJobs(t *testing.T) {
	build := func() string {
		a := BreakdownFigure(cluster.IWARP, []int{4, 4 << 10})
		b := BreakdownFigure(cluster.IB, []int{4, 4 << 10})
		return a.Table() + b.Table()
	}
	old := parallel.Jobs()
	defer parallel.SetJobs(old)
	parallel.SetJobs(1)
	seq := build()
	parallel.SetJobs(8)
	par := build()
	if seq != par {
		t.Fatalf("breakdown output differs between -j 1 and -j 8:\n--- j1 ---\n%s\n--- j8 ---\n%s", seq, par)
	}
}

// TestBreakdownLeafSpineSwitchTime pins that the oversubscribed leaf-spine
// exchange shows what the single-switch testbed cannot: trunk wire and
// queueing time on the critical path.
func TestBreakdownLeafSpineSwitchTime(t *testing.T) {
	rep, err := MPIBreakdownLeafSpine(cluster.IWARP, BreakdownLeafSpineRanks, 64<<10, BreakdownLeafSpineRatio)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, v := range rep.Buckets {
		sum += v
	}
	if sum != rep.Total() {
		t.Fatalf("buckets sum to %d, window is %d", sum, rep.Total())
	}
	if rep.Buckets[causal.Wire]+rep.Buckets[causal.Switch] <= 0 {
		t.Fatalf("no wire/switch time in an oversubscribed cross-leaf exchange: %v", rep.Buckets)
	}
	if w := share(rep, causal.Wire) + share(rep, causal.Switch); w <= 0.5 {
		t.Errorf("fabric share = %.0f%% at 4:1 oversubscription, want > 50%%", 100*w)
	}
}

// breakdownAllocBytes returns the host bytes one breakdown point allocates
// (runtime.ReadMemStats): the traced world, its trace and the causal DAG.
func breakdownAllocBytes(t *testing.T, point func() (*causal.Report, error)) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := point(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestBreakdownAllocationBudget pins what a traced breakdown point costs in
// host bytes. Before the trace log moved to chunks and an attribute arena,
// the causal index to a dense slice and the eager rings to slabs (go1.24 on
// linux/amd64), the 64-rank leaf-spine point allocated about 20 MB and the
// 2-node IB point 0.73 MB; they now take about 13.2 MB and 0.60 MB. The
// 2-node point guards the small end: fixed-size log chunks would make a
// short trace pay for a whole chunk.
func TestBreakdownAllocationBudget(t *testing.T) {
	const leafSpineBudget, twoNodeBudget = 18_000_000, 740_000
	if got := breakdownAllocBytes(t, func() (*causal.Report, error) {
		return MPIBreakdownLeafSpine(cluster.IWARP, 64, 512, 4)
	}); got > leafSpineBudget {
		t.Errorf("leaf-spine breakdown point allocated %d bytes, budget %d", got, leafSpineBudget)
	}
	if got := breakdownAllocBytes(t, func() (*causal.Report, error) {
		return MPIBreakdown(cluster.IB, 4)
	}); got > twoNodeBudget {
		t.Errorf("2-node breakdown point allocated %d bytes, budget %d", got, twoNodeBudget)
	}
}

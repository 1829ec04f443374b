// Determinism-contract tests for fault injection. They live here rather
// than in internal/faults because the full-stack harness needs cluster and
// mpi, which sit above faults in the import graph. The contract under test
// is the one the faults package doc states: same seed + same scenario =>
// bit-identical virtual-time results, and a nil or empty scenario leaves
// the simulation bit-identical to a run that never touched the faults
// package.
package mpi

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/sim"
)

// fingerprint is everything observable about a finished run: where virtual
// time ended up, the full metrics snapshot and the fabric's delivery/drop
// totals. Two runs are "bit-identical" when their fingerprints match.
type fingerprint struct {
	now       sim.Time
	metrics   string
	delivered int64
	dropped   int64
}

// runWorkload executes a fixed 8 x 32KB MPI ping-pong on a 2-node testbed.
// When apply is set the scenario is applied to the built world, whose
// workload starts at t = 0 with the clause windows.
func runWorkload(t *testing.T, kind cluster.Kind, sc *faults.Scenario, apply bool) fingerprint {
	t.Helper()
	tb, w := DefaultWorld(kind, 2)
	defer tb.Close()
	if apply {
		tb.MustApplyFaults(sc)
	}
	for r := 0; r < 2; r++ {
		r := r
		p := w.Rank(r)
		tb.Eng.Go(fmt.Sprintf("rank%d", r), func(pr *sim.Proc) {
			buf := p.Host().Mem.Alloc(32 << 10)
			buf.Fill(byte(r + 1))
			p.Barrier(pr)
			for i := 0; i < 8; i++ {
				if r == 0 {
					p.Send(pr, 1, 1, buf, 0, 32<<10)
					p.Recv(pr, 1, 2, buf, 0, 32<<10)
				} else {
					p.Recv(pr, 0, 1, buf, 0, 32<<10)
					p.Send(pr, 0, 2, buf, 0, 32<<10)
				}
			}
		})
	}
	if err := tb.Run(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := tb.Eng.Metrics().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return fingerprint{now: tb.Eng.Now(), metrics: b.String(), delivered: tb.Fabric.Delivered(), dropped: tb.Fabric.Dropped()}
}

// mixFor builds a per-stack scenario exercising every fault kind the stack
// can survive: the Ethernet stack has a reliability layer under it and takes
// the frame-level faults, the lossless fabrics take link- and engine-level
// faults only (dropping their frames would deadlock the model, as it would
// the hardware).
func mixFor(kind cluster.Kind) *faults.Scenario {
	const us = sim.Microsecond
	switch kind {
	case cluster.IWARP:
		return faults.New(41).Add(
			faults.Loss(0.05),
			faults.BurstLoss(0.01, 0.3),
			faults.Corrupt(0.02),
			faults.NICStall(0, 50*us, 5*us).Between(0, 500*us),
		)
	case cluster.IB:
		return faults.New(42).Add(
			faults.Flap(1, 20*us, 60*us),
			faults.RateLimit(0, 0.5).Between(100*us, 300*us),
			faults.Congest(0, 0.5).Between(0, 400*us),
			faults.NICStall(1, 50*us, 5*us).Between(0, 500*us),
		)
	default: // MX flavours: link-level clauses only
		return faults.New(43).Add(
			faults.Flap(1, 20*us, 60*us),
			faults.RateLimit(0, 0.5).Between(100*us, 300*us),
			faults.Congest(0, 0.5).Between(0, 400*us),
		)
	}
}

// TestScenarioDeterminism: the same seed and scenario reproduce the run
// bit-for-bit on every stack — final virtual time, every metric, every
// delivery count. The second run rebuilds the scenario from scratch so the
// contract provably depends only on the scenario's value, never on shared
// injector state.
func TestScenarioDeterminism(t *testing.T) {
	for _, kind := range cluster.Kinds {
		a := runWorkload(t, kind, mixFor(kind), true)
		b := runWorkload(t, kind, mixFor(kind), true)
		if a.now != b.now {
			t.Errorf("%v: final virtual time differs across identical runs: %v vs %v", kind, a.now, b.now)
		}
		if a.delivered != b.delivered || a.dropped != b.dropped {
			t.Errorf("%v: fabric totals differ: %d/%d vs %d/%d delivered/dropped",
				kind, a.delivered, a.dropped, b.delivered, b.dropped)
		}
		if a.metrics != b.metrics {
			t.Errorf("%v: metrics snapshots differ across identical runs", kind)
		}
	}
}

// TestFaultsActuallyFire guards the determinism test against vacuity: the
// iWARP mix must visibly drop frames and cost time relative to a clean run.
func TestFaultsActuallyFire(t *testing.T) {
	clean := runWorkload(t, cluster.IWARP, nil, false)
	faulted := runWorkload(t, cluster.IWARP, mixFor(cluster.IWARP), true)
	if faulted.dropped == 0 {
		t.Error("iWARP fault mix dropped nothing; the determinism tests are vacuous")
	}
	if faulted.now <= clean.now {
		t.Errorf("faulted run (%v) not slower than clean run (%v)", faulted.now, clean.now)
	}
}

// TestEmptyScenarioMatchesBaseline: a nil scenario and a clause-less
// scenario must leave the simulation bit-identical to a run that never
// called ApplyFaults at all — fault injection disabled is fault injection
// absent.
func TestEmptyScenarioMatchesBaseline(t *testing.T) {
	for _, kind := range []cluster.Kind{cluster.IWARP, cluster.MXoM} {
		base := runWorkload(t, kind, nil, false)
		for _, c := range []struct {
			name string
			sc   *faults.Scenario
		}{{"nil", nil}, {"empty", faults.New(99)}} {
			got := runWorkload(t, kind, c.sc, true)
			if got != base {
				t.Errorf("%v: %s scenario perturbed the run: now %v vs %v, delivered %d vs %d, metrics equal: %v",
					kind, c.name, got.now, base.now, got.delivered, base.delivered, got.metrics == base.metrics)
			}
		}
	}
}

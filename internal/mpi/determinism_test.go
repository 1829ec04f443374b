package mpi

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// observedRun drives one complete simulation with tracing and metrics on and
// returns the three observability artifacts as bytes: the metrics JSON dump,
// the Chrome trace export and the JSONL trace export.
type observedRun struct {
	metrics, chrome, jsonl []byte
	result                 sim.Time
}

// runObserved executes a 2-node ping-pong sweep that straddles the eager/
// rendezvous threshold (the Figure 4 shape), with every instrument enabled.
func runObserved(t *testing.T, kind cluster.Kind, nodes int) observedRun {
	t.Helper()
	tb, w := DefaultWorld(kind, nodes)
	t.Cleanup(tb.Close)
	tr := tb.Eng.StartTrace(0)

	// Message sizes around the iWARP 4 KB threshold, plus a large rendezvous
	// transfer so the registration path and histograms see real traffic.
	sizes := []int{64, 4096, 4097, 65536}
	var elapsed sim.Time
	for r := 0; r < 2; r++ {
		p := w.Rank(r)
		peer := 1 - r
		tb.Eng.Go(fmt.Sprintf("rank%d", r), func(pr *sim.Proc) {
			buf := p.Host().Mem.Alloc(sizes[len(sizes)-1])
			for _, n := range sizes {
				if p.Rank() == 0 {
					start := pr.Now()
					p.Send(pr, peer, 1, buf, 0, n)
					p.Recv(pr, peer, 2, buf, 0, n)
					elapsed += pr.Now() - start
				} else {
					p.Recv(pr, peer, 1, buf, 0, n)
					p.Send(pr, peer, 2, buf, 0, n)
				}
			}
		})
	}
	if err := tb.Run(); err != nil {
		t.Fatal(err)
	}

	var m, c, j bytes.Buffer
	tb.Fabric.PublishLinkMetrics()
	if err := tb.Eng.Metrics().WriteJSON(&m); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteChrome(&c); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteJSONL(&j); err != nil {
		t.Fatal(err)
	}
	return observedRun{metrics: m.Bytes(), chrome: c.Bytes(), jsonl: j.Bytes(), result: elapsed}
}

// TestObservabilityDeterminism is the regression guard for the whole
// observability stack: two identical simulations must produce byte-identical
// metric snapshots and trace streams. A diff here means nondeterminism crept
// into the simulator (map iteration, host-time leakage) or into an exporter.
func TestObservabilityDeterminism(t *testing.T) {
	for _, kind := range []cluster.Kind{cluster.IWARP, cluster.IB, cluster.MXoE} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			a := runObserved(t, kind, 2)
			b := runObserved(t, kind, 2)
			if a.result != b.result {
				t.Fatalf("virtual-time results differ: %v vs %v", a.result, b.result)
			}
			if !bytes.Equal(a.metrics, b.metrics) {
				t.Fatalf("metric snapshots differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a.metrics, b.metrics)
			}
			if !bytes.Equal(a.chrome, b.chrome) {
				t.Fatalf("Chrome trace exports differ (lens %d vs %d)", len(a.chrome), len(b.chrome))
			}
			if !bytes.Equal(a.jsonl, b.jsonl) {
				t.Fatalf("JSONL trace exports differ (lens %d vs %d)", len(a.jsonl), len(b.jsonl))
			}
		})
	}
}

// TestObservabilityDeterminismManyRanks repeats the check on a 4-node iWARP
// world, which exercises the sorted-peer pre-posting path in the verbs
// binding (per-peer bounce buffers are registered for every pair; with map
// iteration order this was the one nondeterministic corner of setup).
func TestObservabilityDeterminismManyRanks(t *testing.T) {
	a := runManyRanks(t)
	b := runManyRanks(t)
	if !bytes.Equal(a.metrics, b.metrics) {
		t.Fatalf("metric snapshots differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a.metrics, b.metrics)
	}
	if !bytes.Equal(a.chrome, b.chrome) {
		t.Fatalf("Chrome trace exports differ (lens %d vs %d)", len(a.chrome), len(b.chrome))
	}
}

func runManyRanks(t *testing.T) observedRun {
	t.Helper()
	const nodes, n = 4, 2048
	tb, w := DefaultWorld(cluster.IWARP, nodes)
	t.Cleanup(tb.Close)
	tr := tb.Eng.StartTrace(0)
	for r := 0; r < nodes; r++ {
		p := w.Rank(r)
		tb.Eng.Go(fmt.Sprintf("rank%d", r), func(pr *sim.Proc) {
			buf := p.Host().Mem.Alloc(n)
			// Ring exchange: everyone sends right, receives from the left.
			right := (p.Rank() + 1) % nodes
			left := (p.Rank() + nodes - 1) % nodes
			req := p.Isend(pr, right, 9, buf, 0, n)
			p.Recv(pr, left, 9, buf, 0, n)
			p.WaitAll(pr, []Request{req})
		})
	}
	if err := tb.Run(); err != nil {
		t.Fatal(err)
	}
	var m, c bytes.Buffer
	tb.Fabric.PublishLinkMetrics()
	if err := tb.Eng.Metrics().WriteJSON(&m); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteChrome(&c); err != nil {
		t.Fatal(err)
	}
	return observedRun{metrics: m.Bytes(), chrome: c.Bytes()}
}

// TestMetricsSeeTheThresholdFlip pins the acceptance criterion that the
// eager/rendezvous counters flip exactly at the configured threshold.
func TestMetricsSeeTheThresholdFlip(t *testing.T) {
	send := func(n int) (eager, rndv int64) {
		tb, w := DefaultWorld(cluster.IWARP, 2)
		t.Cleanup(tb.Close)
		for r := 0; r < 2; r++ {
			p := w.Rank(r)
			peer := 1 - r
			tb.Eng.Go(fmt.Sprintf("rank%d", r), func(pr *sim.Proc) {
				buf := p.Host().Mem.Alloc(n)
				if p.Rank() == 0 {
					p.Send(pr, peer, 1, buf, 0, n)
				} else {
					p.Recv(pr, peer, 1, buf, 0, n)
				}
			})
		}
		if err := tb.Run(); err != nil {
			t.Fatal(err)
		}
		reg := tb.Eng.Metrics()
		return reg.Counter("mpi.eager_sends").Value(), reg.Counter("mpi.rndv_sends").Value()
	}

	threshold := ConfigFor(cluster.IWARP).EagerThreshold
	if eager, rndv := send(threshold); eager != 1 || rndv != 0 {
		t.Fatalf("at threshold: eager=%d rndv=%d, want 1/0", eager, rndv)
	}
	if eager, rndv := send(threshold + 1); eager != 0 || rndv != 1 {
		t.Fatalf("above threshold: eager=%d rndv=%d, want 0/1", eager, rndv)
	}
}

package causal

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestBuildRefusesLossyTrace(t *testing.T) {
	tr := trace.New(func() int64 { return 0 }, 1)
	tr.InstantR("a", "first")  // fills the one-event buffer
	tr.InstantR("a", "second") // dropped, carries a causal self
	if tr.DropStats().CausalEdges == 0 {
		t.Fatal("expected a dropped causal edge")
	}
	_, err := Build(tr.Log(), tr.DropStats())
	if err == nil {
		t.Fatal("Build accepted a lossy trace")
	}
	// Non-causal drops are fine.
	tr2 := trace.New(func() int64 { return 0 }, 1)
	tr2.Instant("a", "first")
	tr2.Instant("a", "second") // dropped, no causal attrs
	if _, err := Build(tr2.Log(), tr2.DropStats()); err != nil {
		t.Fatalf("Build refused a trace with only non-causal drops: %v", err)
	}
}

// TestBuildRejectsBadRefs feeds Build traces read from JSONL, as
// cmd/tracetool does: a duplicate self ref, a negative one and one far past
// the trace's length are errors, not a panic or a ref-sized index.
func TestBuildRejectsBadRefs(t *testing.T) {
	for _, c := range []struct{ refs, want string }{
		{"1 1", "duplicate node ref 1"},
		{"1 -2", "node ref -2 out of range"},
		{"1 9000000000", "node ref 9000000000 out of range"},
	} {
		var jsonl strings.Builder
		for _, r := range strings.Fields(c.refs) {
			fmt.Fprintf(&jsonl, `{"ph":"i","who":"a","name":"e","ts_ps":0,"attrs":{"causal.self":%s}}`+"\n", r)
		}
		log, drops, err := trace.ReadJSONL(strings.NewReader(jsonl.String()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Build(log, drops); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("refs %s: Build error %v, want %q", c.refs, err, c.want)
		}
	}
}

func TestCriticalPathLatestCauseWins(t *testing.T) {
	tr := trace.New(func() int64 { return 0 }, 0)
	early := tr.CompleteR("a", "early", 0, 10)
	late := tr.CompleteR("a", "late", 0, 50)
	end := tr.CompleteR("a", "end", 50, 60, trace.Cause(early), trace.Cause(late))
	d, err := Build(tr.Log(), tr.DropStats())
	if err != nil {
		t.Fatal(err)
	}
	path, err := d.CriticalPath(end)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 2 || path[0].Ref != late || path[1].Ref != end {
		t.Fatalf("path = %v, want [late end]", refs(path))
	}
}

func TestCriticalPathTieBreaksLowRef(t *testing.T) {
	tr := trace.New(func() int64 { return 0 }, 0)
	a := tr.CompleteR("a", "a", 0, 10)
	b := tr.CompleteR("a", "b", 0, 10) // same end, higher ref
	end := tr.CompleteR("a", "end", 10, 20, trace.Cause(b), trace.Cause(a))
	d, err := Build(tr.Log(), tr.DropStats())
	if err != nil {
		t.Fatal(err)
	}
	path, err := d.CriticalPath(end)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 2 || path[0].Ref != a {
		t.Fatalf("path = %v, want the lowest-ref cause %d first", refs(path), a)
	}
}

// TestBlameTilesExactly pins the attribution algorithm on a hand-built
// chain: a host call, an engine-queue wait, NIC occupancy, switch queueing,
// wire serialization, remote NIC work, then host tail. Every picosecond of
// the 100 ps window must land in exactly one bucket.
func TestBlameTilesExactly(t *testing.T) {
	tr := trace.New(func() int64 { return 0 }, 0)
	a := tr.CompleteR("mpi.rank0", "mpi.isend", 0, 10)
	b := tr.CompleteR("nic0", "tx-pkt", 20, 30, trace.Cause(a))
	c := tr.CompleteR("link.net.up.0", "tx", 50, 60, trace.Cause(b))
	dd := tr.CompleteR("nic1", "rx-pkt", 60, 70, trace.Cause(c))
	op := tr.NewRef()
	tr.CompleteSelf("mpi.rank1", "mpi.wait", op, 0, 100, trace.Cause(dd))

	d, err := Build(tr.Log(), tr.DropStats())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := d.Blame(op)
	if err != nil {
		t.Fatal(err)
	}
	want := [NumBuckets]int64{
		Host:   10 + 30, // the isend span + the trailing window tail
		NIC:    10 + 10 + 10,
		Switch: 20,
		Wire:   10,
		Stall:  0,
	}
	if rep.Buckets != want {
		t.Fatalf("buckets = %v, want %v", rep.Buckets, want)
	}
	var sum int64
	for _, v := range rep.Buckets {
		sum += v
	}
	if sum != rep.Total() {
		t.Fatalf("buckets sum to %d, window is %d", sum, rep.Total())
	}
}

// TestBlameSumInvariantEndToEnd runs a real ping-pong on every stack with
// tracing enabled and pins the invariant that the blame buckets sum to the
// measured operation time, with wire and NIC time both present on the
// critical path of a cross-host receive.
func TestBlameSumInvariantEndToEnd(t *testing.T) {
	for _, kind := range cluster.Kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			const n = 4096
			tb, w := mpi.DefaultWorld(kind, 2)
			defer tb.Close()
			tr := tb.Eng.StartTrace(0)
			var op trace.Ref
			for r := 0; r < 2; r++ {
				p := w.Rank(r)
				peer := 1 - r
				tb.Eng.Go(fmt.Sprintf("rank%d", r), func(pr *sim.Proc) {
					buf := p.Host().Mem.Alloc(n)
					if p.Rank() == 0 {
						p.Send(pr, peer, 1, buf, 0, n)
					} else {
						p.Recv(pr, peer, 1, buf, 0, n)
						op = p.LastCallRef()
					}
				})
			}
			if err := tb.Run(); err != nil {
				t.Fatal(err)
			}
			if op == trace.RefNone {
				t.Fatal("no op ref recorded")
			}
			d, err := Build(tr.Log(), tr.DropStats())
			if err != nil {
				t.Fatal(err)
			}
			rep, err := d.Blame(op)
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
			if rep.Total() <= 0 {
				t.Fatal("empty blame window")
			}
			if rep.Buckets[Wire] <= 0 {
				t.Errorf("no wire time on a cross-host receive: %v", rep.Buckets)
			}
			if rep.Buckets[NIC] <= 0 {
				t.Errorf("no NIC time on a cross-host receive: %v", rep.Buckets)
			}
			if len(rep.Path) < 4 {
				t.Errorf("suspiciously short critical path: %d nodes", len(rep.Path))
			}
		})
	}
}

// TestBlameSurvivesJSONL blames the last MPI call of an MXoM 64 KiB MPI
// ping-pong (the rendezvous path, whose events carry two causes) from the
// live log and from the same trace written to JSONL and read back, as
// cmd/tracetool does: the two reports must agree node for node.
func TestBlameSurvivesJSONL(t *testing.T) {
	const n, iters = 64 << 10, 4
	tb, w := mpi.DefaultWorld(cluster.MXoM, 2)
	defer tb.Close()
	tr := tb.Eng.StartTrace(0)
	for r := 0; r < 2; r++ {
		p := w.Rank(r)
		peer := 1 - r
		tb.Eng.Go(fmt.Sprintf("rank%d", r), func(pr *sim.Proc) {
			buf := p.Host().Mem.Alloc(n)
			p.Barrier(pr)
			for i := 0; i < iters; i++ {
				if r == 0 {
					p.Send(pr, peer, 1, buf, 0, n)
					p.Recv(pr, peer, 2, buf, 0, n)
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
	blame := func(log *trace.Log, drops trace.DropStats) *Report {
		t.Helper()
		d, err := Build(log, drops)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := d.Blame(d.Terminal())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	live := blame(tr.Log(), tr.DropStats())
	var jsonl strings.Builder
	if err := tr.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	log, drops, err := trace.ReadJSONL(strings.NewReader(jsonl.String()))
	if err != nil {
		t.Fatal(err)
	}
	read := blame(log, drops)
	if live.Start != read.Start || live.End != read.End || live.Buckets != read.Buckets {
		t.Fatalf("JSONL report [%d, %d] %v, live [%d, %d] %v", read.Start, read.End, read.Buckets, live.Start, live.End, live.Buckets)
	}
	if a, b := refs(live.Path), refs(read.Path); fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("JSONL critical path (%d nodes) %v, live (%d nodes) %v", len(b), b, len(a), a)
	}
}

func refs(path []*Node) []trace.Ref {
	out := make([]trace.Ref, len(path))
	for i, n := range path {
		out[i] = n.Ref
	}
	return out
}

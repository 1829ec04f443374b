package mpi

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/verbs"
)

// mustPanic runs fn and returns its panic message, failing if it returns.
func mustPanic(t *testing.T, fn func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic")
		}
		msg = fmt.Sprint(r)
	}()
	fn()
	return ""
}

// TestCompletionForUnknownWRPanics hands the verbs binding completions no
// work request it has in flight could produce: one naming a bounce that is
// not posted (a send bounce sitting in the free pool), one past the last
// bounce slot, and one for a rendezvous write that was never posted.
func TestCompletionForUnknownWRPanics(t *testing.T) {
	tb, w := DefaultWorld(cluster.IB, 2)
	defer tb.Close()
	vb := w.Rank(0).vb
	idle := vb.sendFree[0]
	if idle.posted || idle.recv {
		t.Fatalf("free send bounce %+v is posted", idle)
	}
	for _, id := range []uint64{bounceWR(idle), uint64(len(vb.bounces)) << 1, 1, 7} {
		msg := mustPanic(t, func() { vb.handle(nil, verbs.Completion{WRID: id}) })
		if !strings.Contains(msg, "completion for unknown WR") {
			t.Errorf("WR %d: panic %q", id, msg)
		}
	}
}

// allreduceUnwritten runs an n-byte Allreduce with op over buffers no rank
// has written on a 4-rank world and returns every rank's result and the
// host bytes the run materialised.
func allreduceUnwritten(t *testing.T, kind cluster.Kind, n int, op ReduceOp) ([][]byte, int64) {
	t.Helper()
	const ranks = 4
	tb, w := DefaultWorld(kind, ranks)
	defer tb.Close()
	c := tb.Eng.Metrics().Counter("mem.bytes_materialized")
	before := c.Value()
	got := make([][]byte, ranks)
	for r := 0; r < ranks; r++ {
		p := w.Rank(r)
		tb.Eng.Go(fmt.Sprintf("rank%d", r), func(pr *sim.Proc) {
			buf := p.Host().Mem.Alloc(n)
			p.Allreduce(pr, op, buf, 0, n)
			got[p.Rank()] = make([]byte, n)
			buf.Load(got[p.Rank()], 0)
		})
	}
	if err := tb.Run(); err != nil {
		t.Fatal(err)
	}
	return got, c.Value() - before
}

// TestAllreduceOfUnwrittenBuffersStaysUnwritten checks that combining
// zeros writes nothing: the bytes a 64 KiB and a 128 KiB Allreduce of
// never-written buffers materialise are the same protocol headers, so no
// rank wrote any payload, and an op whose op(0, 0) is not zero still
// writes its result everywhere.
func TestAllreduceOfUnwrittenBuffersStaysUnwritten(t *testing.T) {
	const n = 64 << 10
	for _, kind := range []cluster.Kind{cluster.IWARP, cluster.IB, cluster.MXoM} {
		t.Run(kind.String(), func(t *testing.T) {
			got, small := allreduceUnwritten(t, kind, n, SumFloat64)
			for r, b := range got {
				if !bytes.Equal(b, make([]byte, n)) {
					t.Fatalf("rank %d: sum of zeros is not zero", r)
				}
			}
			if _, large := allreduceUnwritten(t, kind, 2*n, SumFloat64); large != small || small >= n {
				t.Errorf("allreduce of zeros materialised %d bytes at %d B and %d at %d B, want the same headers at both sizes",
					small, n, large, 2*n)
			}
			// Each combine adds one to every byte: the root combines three
			// partial results, and Bcast carries them to every rank.
			plusOne := func(dst, src []byte) {
				for i := range dst {
					dst[i] += src[i] + 1
				}
			}
			got, _ = allreduceUnwritten(t, kind, n, plusOne)
			for r, b := range got {
				if !bytes.Equal(b, bytes.Repeat([]byte{3}, n)) {
					t.Fatalf("rank %d: op(0,0) != 0 result starts %v, want all 3", r, b[:8])
				}
			}
		})
	}
}

package mpi

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/sim"
)

// TestMPIOverLossyEthernet: the iWARP stack rides a real reliability layer
// (the offloaded TCP), so frame loss on the Ethernet must be invisible to
// MPI except as added latency. Inject random loss through the faults
// scenario layer and verify a full mixed-size bidirectional exchange
// bit-for-bit. (The IB and MX fabrics are link-level lossless in hardware
// and in the model, so only the Ethernet stack faces this.)
func TestMPIOverLossyEthernet(t *testing.T) {
	tb, w := DefaultWorld(cluster.IWARP, 2)
	defer tb.Close()
	inj := tb.MustApplyFaults(faults.New(2026).Add(faults.Loss(0.10)))
	sizes := []int{1, 4 << 10, 100 << 10, 64, 64 << 10}
	for r := 0; r < 2; r++ {
		r := r
		p := w.Rank(r)
		tb.Eng.Go(fmt.Sprintf("rank%d", r), func(pr *sim.Proc) {
			peer := 1 - r
			var reqs []Request
			for i, n := range sizes {
				b := p.Host().Mem.Alloc(n)
				b.Fill(byte(r*20 + i))
				reqs = append(reqs, p.Isend(pr, peer, i, b, 0, n))
			}
			for i, n := range sizes {
				b := p.Host().Mem.Alloc(n)
				st := p.Recv(pr, peer, i, b, 0, n)
				if st.Count != n || !b.Equal(byte(peer*20+i), 0, n) {
					t.Errorf("rank %d message %d corrupt under loss", r, i)
				}
			}
			p.WaitAll(pr, reqs)
		})
	}
	if err := tb.Run(); err != nil {
		t.Fatal(err)
	}
	if inj.Dropped() == 0 {
		t.Error("loss injection never fired; test is vacuous")
	}
}

// TestMPILossyVsCleanLatency: loss costs time (retransmissions), never
// correctness. A lossy run must be strictly slower than a clean one. The
// clean run applies a nil scenario, exercising the no-op guarantee on the
// same code path.
func TestMPILossyVsCleanLatency(t *testing.T) {
	elapsed := func(sc *faults.Scenario) sim.Time {
		tb, w := DefaultWorld(cluster.IWARP, 2)
		defer tb.Close()
		tb.MustApplyFaults(sc)
		var total sim.Time
		tb.Eng.Go("rank0", func(pr *sim.Proc) {
			p := w.Rank(0)
			buf := p.Host().Mem.Alloc(32 << 10)
			buf.Fill(1)
			p.Barrier(pr)
			start := pr.Now()
			for i := 0; i < 10; i++ {
				p.Send(pr, 1, 1, buf, 0, 32<<10)
				p.Recv(pr, 1, 2, buf, 0, 32<<10)
			}
			total = pr.Now() - start
		})
		tb.Eng.Go("rank1", func(pr *sim.Proc) {
			p := w.Rank(1)
			buf := p.Host().Mem.Alloc(32 << 10)
			p.Barrier(pr)
			for i := 0; i < 10; i++ {
				p.Recv(pr, 0, 1, buf, 0, 32<<10)
				p.Send(pr, 0, 2, buf, 0, 32<<10)
			}
		})
		if err := tb.Run(); err != nil {
			t.Fatal(err)
		}
		return total
	}
	clean := elapsed(nil)
	lossy := elapsed(faults.New(7).Add(faults.Loss(0.05)))
	if lossy <= clean {
		t.Errorf("5%% loss run (%v) not slower than clean run (%v)", lossy, clean)
	}
}

// TestFrameFaultsOnEveryStack runs each frame-level clause on all four
// stacks. Only iWARP has a reliability layer under it, so ApplyFaults must
// refuse the clauses that lose frames (loss, burst-loss, a dropping flap)
// on IB and both MX flavours: run anyway, they hang the world or break the
// NIC model and report a meaningless latency. Corruption is accepted
// everywhere; IB and MX ignore the flag, so their runs must match the
// clean one exactly. Every accepted run must finish with intact payloads.
func TestFrameFaultsOnEveryStack(t *testing.T) {
	const us = sim.Microsecond
	clauses := []faults.Clause{
		faults.Loss(0.05),
		faults.BurstLoss(0.02, 0.3),
		faults.FlapDrop(1, 0, 200*us),
		faults.Corrupt(0.05),
	}
	for _, kind := range cluster.Kinds {
		clean, _, _ := faultedPingPong(t, kind, nil)
		for _, cl := range clauses {
			elapsed, hits, err := faultedPingPong(t, kind, faults.New(11).Add(cl))
			name := fmt.Sprintf("%v %s (drop %v)", kind, cl.Kind, cl.Drop)
			switch {
			case kind != cluster.IWARP && cl.Drops():
				if err == nil {
					t.Errorf("%s: accepted on a lossless fabric", name)
				}
			case err != nil:
				t.Errorf("%s: rejected: %v", name, err)
			case hits == 0:
				t.Errorf("%s: the clause never fired; the run is vacuous", name)
			case kind != cluster.IWARP && elapsed != clean:
				t.Errorf("%s: %v, want the clean %v (the flag is ignored)", name, elapsed, clean)
			}
		}
	}
}

// faultedPingPong builds a 2-node MPI world of kind, applies sc, and
// ping-pongs a 4 KiB message 20 times, checking the bytes. It returns rank
// 0's elapsed time and the frames the scenario dropped or corrupted, or
// ApplyFaults' error.
func faultedPingPong(t *testing.T, kind cluster.Kind, sc *faults.Scenario) (sim.Time, int64, error) {
	t.Helper()
	const size, iters = 4 << 10, 20
	tb := cluster.New(kind, 2)
	defer tb.Close()
	w := NewWorld(tb, ConfigFor(kind))
	inj, err := tb.ApplyFaults(sc)
	if err != nil {
		return 0, 0, err
	}
	var elapsed sim.Time
	for r := 0; r < 2; r++ {
		p := w.Rank(r)
		tb.Eng.Go(fmt.Sprintf("rank%d", r), func(pr *sim.Proc) {
			buf := p.Host().Mem.Alloc(size)
			start := pr.Now()
			for i := 0; i < iters; i++ {
				if r == 0 {
					buf.Fill(byte(i))
					p.Send(pr, 1, i, buf, 0, size)
					p.Recv(pr, 1, i, buf, 0, size)
				} else {
					p.Recv(pr, 0, i, buf, 0, size)
					p.Send(pr, 0, i, buf, 0, size)
				}
				if !buf.Equal(byte(i), 0, size) {
					t.Errorf("%v rank %d: message %d corrupt", kind, r, i)
				}
			}
			if r == 0 {
				elapsed = pr.Now() - start
			}
		})
	}
	if err := tb.Run(); err != nil {
		t.Fatal(err)
	}
	if n := tb.Eng.LiveProcs(); n != 0 {
		t.Fatalf("%v: %d processes still blocked: %v", kind, n, tb.Eng.ProcNames())
	}
	if inj == nil {
		return elapsed, 0, nil
	}
	return elapsed, inj.Dropped() + inj.Corrupted(), nil
}

// Package logp measures the parameterized-LogP parameters of an MPI stack
// (Kielmann, Bal and Verstoep, "Fast measurement of LogP parameters for
// message passing platforms"), as the paper's Section 6.3 does:
//
//	g(m)  — the gap: minimum interval between consecutive message
//	        transmissions, measured by saturating the channel.
//	Os(m) — sender overhead: CPU time spent in the send call.
//	Or(m) — receiver overhead: CPU time to complete a receive whose data
//	        has (potentially) already arrived. Receives are pre-posted and
//	        the receiver then delays, so a stack with independent progress
//	        (MX's NIC-driven rendezvous) completes the transfer during the
//	        delay, while call-driven stacks (MPICH/MVAPICH on iWARP and IB)
//	        pay the whole rendezvous inside MPI_Wait — the paper's
//	        "dramatic jump in the receiver overhead ... except for Myrinet".
package logp

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// Params holds the three measured parameters for one message size.
type Params struct {
	G  sim.Time
	Os sim.Time
	Or sim.Time
}

// Measure returns the LogP parameters of `kind` at message size m.
func Measure(kind cluster.Kind, m int) Params {
	return Params{
		G:  Gap(kind, m, 64),
		Os: SenderOverhead(kind, m, 32),
		Or: ReceiverOverhead(kind, m, 8),
	}
}

// Gap measures g(m) by streaming k messages back to back and dividing the
// steady-state interval by k.
func Gap(kind cluster.Kind, m, k int) sim.Time {
	tb, w := mpi.DefaultWorld(kind, 2)
	defer tb.Close()
	var g sim.Time
	tb.Eng.Go("sender", func(pr *sim.Proc) {
		p := w.Rank(0)
		buf := p.Host().Mem.Alloc(max(m, 1))
		p.Barrier(pr)
		start := pr.Now()
		reqs := make([]*mpi.Request, k)
		for i := 0; i < k; i++ {
			reqs[i] = p.Isend(pr, 1, 1, buf, 0, m)
		}
		p.WaitAll(pr, reqs)
		// Wait for the receiver's final ack so the tail of the burst is
		// included in the interval.
		p.Recv(pr, 1, 2, buf, 0, 0)
		g = (pr.Now() - start) / sim.Time(k)
	})
	tb.Eng.Go("receiver", func(pr *sim.Proc) {
		p := w.Rank(1)
		buf := p.Host().Mem.Alloc(max(m, 1))
		reqs := make([]*mpi.Request, k)
		for i := 0; i < k; i++ {
			reqs[i] = p.Irecv(pr, 0, 1, buf, 0, m)
		}
		p.Barrier(pr)
		p.WaitAll(pr, reqs)
		p.Send(pr, 0, 2, buf, 0, 0)
	})
	mustRun(tb)
	return g
}

// SenderOverhead measures Os(m): the average duration of the non-blocking
// send call itself.
func SenderOverhead(kind cluster.Kind, m, iters int) sim.Time {
	tb, w := mpi.DefaultWorld(kind, 2)
	defer tb.Close()
	var os sim.Time
	tb.Eng.Go("sender", func(pr *sim.Proc) {
		p := w.Rank(0)
		buf := p.Host().Mem.Alloc(max(m, 1))
		p.Barrier(pr)
		var reqs []*mpi.Request
		for i := 0; i < iters; i++ {
			t0 := pr.Now()
			reqs = append(reqs, p.Isend(pr, 1, 1, buf, 0, m))
			os += pr.Now() - t0
			// Pace the sends so each call observes an idle channel.
			p.WaitAll(pr, reqs)
			reqs = reqs[:0]
			pr.Sleep(200 * sim.Microsecond)
		}
	})
	tb.Eng.Go("receiver", func(pr *sim.Proc) {
		p := w.Rank(1)
		buf := p.Host().Mem.Alloc(max(m, 1))
		p.Barrier(pr)
		for i := 0; i < iters; i++ {
			p.Recv(pr, 0, 1, buf, 0, m)
		}
	})
	mustRun(tb)
	return os / sim.Time(iters)
}

// ReceiverOverhead measures Or(m): receives are pre-posted, the receiver
// delays until the message must have arrived (or stalled waiting for
// progress), then the cost of MPI_Wait is measured.
func ReceiverOverhead(kind cluster.Kind, m, iters int) sim.Time {
	tb, w := mpi.DefaultWorld(kind, 2)
	defer tb.Close()
	// The delay must exceed the full transfer time of the largest message.
	delay := 20*sim.Millisecond + sim.Time(m)*sim.Microsecond/1000
	var or sim.Time
	tb.Eng.Go("receiver", func(pr *sim.Proc) {
		p := w.Rank(1)
		buf := p.Host().Mem.Alloc(max(m, 1))
		p.Barrier(pr)
		for i := 0; i < iters; i++ {
			req := p.Irecv(pr, 0, 1, buf, 0, m)
			p.Send(pr, 0, 2, buf, 0, 0) // tell the sender the recv is posted
			pr.Sleep(delay)             // "compute" while the message arrives
			t0 := pr.Now()
			req.Wait(pr)
			or += pr.Now() - t0
		}
	})
	tb.Eng.Go("sender", func(pr *sim.Proc) {
		p := w.Rank(0)
		buf := p.Host().Mem.Alloc(max(m, 1))
		p.Barrier(pr)
		for i := 0; i < iters; i++ {
			p.Recv(pr, 1, 2, buf, 0, 0)
			p.Send(pr, 1, 1, buf, 0, m)
		}
	})
	mustRun(tb)
	return or / sim.Time(iters)
}

func mustRun(tb *cluster.Testbed) {
	if err := tb.Run(); err != nil {
		panic(fmt.Sprintf("logp: %v", err))
	}
}

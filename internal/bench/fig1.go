package bench

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/verbs"
)

// UserLatency measures the user-level one-way ping-pong latency of one
// stack at one message size, exactly as Section 5 does: RDMA Write with a
// polled target buffer for iWARP and IB ("to measure optimistic results, we
// check completion of the RDMA write operations by polling the target
// buffer"), MX isend/irecv for MXoM and MXoE.
func UserLatency(kind cluster.Kind, size, iters int) sim.Time {
	if kind.IsMX() {
		return mxUserLatency(kind, size, iters)
	}
	return verbsUserLatency(kind, size, iters)
}

func verbsUserLatency(kind cluster.Kind, size, iters int) sim.Time {
	tb := cluster.NewWithOptions(kind, 2, shardOpts())
	defer tb.Close()
	return VerbsUserLatencyOn(tb, size, iters)
}

// VerbsUserLatencyOn runs the user-level RDMA Write ping-pong on an existing
// (possibly ablated) two-node verbs testbed.
func VerbsUserLatencyOn(tb *cluster.Testbed, size, iters int) sim.Time {
	qa, qb := tb.ConnectQP(0, 1)
	h0, h1 := tb.Hosts[0], tb.Hosts[1]

	srcA := h0.Mem.Alloc(size)
	dstA := h0.Mem.Alloc(size) // replies land here
	srcB := h1.Mem.Alloc(size)
	dstB := h1.Mem.Alloc(size)
	// The paper's tests register once up front, outside the timed loop.
	regSrcA := h0.NIC().Reg().RegisterFree(srcA, 0, size)
	regDstA := h0.NIC().Reg().RegisterFree(dstA, 0, size)
	regSrcB := h1.NIC().Reg().RegisterFree(srcB, 0, size)
	regDstB := h1.NIC().Reg().RegisterFree(dstB, 0, size)

	const warmup = 2
	var rtt sim.Time
	tb.Go(0, "side-a", func(p *sim.Proc) {
		var id uint64
		for i := 0; i < warmup+iters; i++ {
			if i == warmup {
				rtt = -p.Now()
			}
			id++
			qa.PostSend(p, verbs.WR{ID: id, Op: verbs.OpWrite, Local: regSrcA, Len: size, RemoteKey: regDstB.Key})
			waitPlaced(p, qa, size)
			p.Sleep(h0.PollDetect())
		}
		rtt += p.Now()
	})
	tb.Go(1, "side-b", func(p *sim.Proc) {
		var id uint64
		for i := 0; i < warmup+iters; i++ {
			waitPlaced(p, qb, size)
			p.Sleep(h1.PollDetect())
			id++
			qb.PostSend(p, verbs.WR{ID: id, Op: verbs.OpWrite, Local: regSrcB, Len: size, RemoteKey: regDstA.Key})
		}
	})
	mustRun(tb)
	return rtt / sim.Time(2*iters)
}

// waitPlaced consumes tagged placements until `size` bytes have landed.
func waitPlaced(p *sim.Proc, qp verbs.QP, size int) {
	got := 0
	for got < size {
		pl := qp.Placements().Get(p)
		got += pl.Len
	}
}

func mxUserLatency(kind cluster.Kind, size, iters int) sim.Time {
	tb := cluster.NewWithOptions(kind, 2, shardOpts())
	defer tb.Close()
	e0, e1 := tb.Hosts[0].MX, tb.Hosts[1].MX
	bufA := tb.Hosts[0].Mem.Alloc(size)
	bufB := tb.Hosts[1].Mem.Alloc(size)

	const warmup = 2
	var rtt sim.Time
	tb.Go(0, "side-a", func(p *sim.Proc) {
		for i := 0; i < warmup+iters; i++ {
			if i == warmup {
				rtt = -p.Now()
			}
			hr := e0.Irecv(p, 2, ^uint64(0), bufA, 0, size)
			e0.Isend(p, e1, 1, bufA, 0, size)
			hr.Wait(p)
		}
		rtt += p.Now()
	})
	tb.Go(1, "side-b", func(p *sim.Proc) {
		for i := 0; i < warmup+iters; i++ {
			hr := e1.Irecv(p, 1, ^uint64(0), bufB, 0, size)
			hr.Wait(p)
			hs := e1.Isend(p, e0, 2, bufB, 0, size)
			hs.Wait(p)
		}
	})
	mustRun(tb)
	return rtt / sim.Time(2*iters)
}

func mustRun(tb *cluster.Testbed) {
	if err := tb.Run(); err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
}

// Fig1Latency reproduces the latency half of Figure 1: user-level inter-node
// ping-pong latency for all four libraries.
func Fig1Latency(sizes []int) Figure {
	fig := Figure{
		ID:     "fig1-latency",
		Title:  "User-level inter-node latency",
		XLabel: "bytes",
		YLabel: "one-way latency (us)",
	}
	fig.Series = gridSeries(fig1Labels(), floats(sizes), func(si, xi int) float64 {
		return UserLatency(cluster.Kinds[si], sizes[xi], itersFor(sizes[xi])).Micros()
	})
	return fig
}

// Fig1Bandwidth reproduces the bandwidth half of Figure 1. As in the paper,
// "bandwidth is computed using the latency results".
func Fig1Bandwidth(sizes []int) Figure {
	fig := Figure{
		ID:     "fig1-bandwidth",
		Title:  "User-level inter-node bandwidth",
		XLabel: "bytes",
		YLabel: "bandwidth (MB/s)",
	}
	fig.Series = gridSeries(fig1Labels(), floats(sizes), func(si, xi int) float64 {
		lat := UserLatency(cluster.Kinds[si], sizes[xi], itersFor(sizes[xi]))
		return sim.MBpsOf(int64(sizes[xi]), lat)
	})
	return fig
}

func fig1Labels() []string {
	labels := make([]string, len(cluster.Kinds))
	for i, kind := range cluster.Kinds {
		labels[i] = fig1Label(kind)
	}
	return labels
}

func fig1Label(kind cluster.Kind) string {
	switch kind {
	case cluster.IWARP:
		return "iWARP RDMA Write"
	case cluster.IB:
		return "VAPI RDMA Write"
	case cluster.MXoM:
		return "MXoM Send/Recv"
	case cluster.MXoE:
		return "MXoE Send/Recv"
	}
	return kind.String()
}

package bench

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/verbs"
)

// Fig2Conns is the connection-count sweep of the multi-connection tests.
var Fig2Conns = []int{1, 2, 4, 8, 16, 32, 64, 128, 256}

// Fig2LatencySizes are the paper's message sizes for the normalized
// multiple-connection latency plots.
var Fig2LatencySizes = []int{128, 1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10}

// Fig2ThroughputSizes are the message sizes for the throughput plots.
var Fig2ThroughputSizes = []int{512, 1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10}

// multiConnRig wires nconn QP pairs between two nodes with per-connection
// buffers, using the OpenFabrics-style common verbs interface, like the
// paper's head-to-head comparison.
type multiConnRig struct {
	tb       *cluster.Testbed
	qa, qb   []verbs.QP
	srcA     []*mem.Region
	srcB     []*mem.Region
	dstAKeys []mem.RKey
	dstBKeys []mem.RKey
}

func newMultiConnRig(tb *cluster.Testbed, nconn, size int) *multiConnRig {
	r := &multiConnRig{tb: tb}
	h0, h1 := tb.Hosts[0], tb.Hosts[1]
	for c := 0; c < nconn; c++ {
		qa, qb := tb.ConnectQP(0, 1)
		r.qa = append(r.qa, qa)
		r.qb = append(r.qb, qb)
		srcA := h0.Mem.Alloc(size)
		dstA := h0.Mem.Alloc(size)
		srcB := h1.Mem.Alloc(size)
		dstB := h1.Mem.Alloc(size)
		srcA.Fill(byte(c))
		srcB.Fill(byte(c + 1))
		r.srcA = append(r.srcA, h0.NIC().Reg().RegisterFree(srcA, 0, size))
		r.srcB = append(r.srcB, h1.NIC().Reg().RegisterFree(srcB, 0, size))
		r.dstAKeys = append(r.dstAKeys, h0.NIC().Reg().RegisterFree(dstA, 0, size).Key)
		r.dstBKeys = append(r.dstBKeys, h1.NIC().Reg().RegisterFree(dstB, 0, size).Key)
	}
	return r
}

// MultiConnLatency runs the normalized multiple-connection latency test:
// rounds of RDMA Writes round-robined over every connection in parallel,
// echoed by the peer; the cumulative half round-trip time is divided by
// connections x messages.
func MultiConnLatency(kind cluster.Kind, nconn, size, rounds int) sim.Time {
	return MultiConnLatencyOn(cluster.New(kind, 2), nconn, size, rounds)
}

// MultiConnLatencyOn is MultiConnLatency on a caller-built (possibly
// ablated) two-node testbed, which it closes.
func MultiConnLatencyOn(tb *cluster.Testbed, nconn, size, rounds int) sim.Time {
	r := newMultiConnRig(tb, nconn, size)
	defer r.tb.Close()
	const warmup = 1
	var elapsed sim.Time
	r.tb.Eng.Go("side-a", func(p *sim.Proc) {
		var id uint64
		for round := 0; round < warmup+rounds; round++ {
			if round == warmup {
				elapsed = -p.Now()
			}
			for c := 0; c < nconn; c++ {
				id++
				r.qa[c].PostSend(p, verbs.WR{ID: id, Op: verbs.OpWrite, Local: r.srcA[c], Len: size, RemoteKey: r.dstBKeys[c]})
			}
			for c := 0; c < nconn; c++ {
				waitPlaced(p, r.qa[c], size)
			}
			p.Sleep(r.tb.Hosts[0].PollDetect())
		}
		elapsed += p.Now()
	})
	// The echo side services each connection independently.
	for c := 0; c < nconn; c++ {
		c := c
		r.tb.Eng.Go(fmt.Sprintf("echo-%d", c), func(p *sim.Proc) {
			var id uint64
			for round := 0; round < warmup+rounds; round++ {
				waitPlaced(p, r.qb[c], size)
				id++
				r.qb[c].PostSend(p, verbs.WR{ID: id, Op: verbs.OpWrite, Local: r.srcB[c], Len: size, RemoteKey: r.dstAKeys[c]})
			}
		})
	}
	mustRun(r.tb)
	return elapsed / 2 / sim.Time(nconn*rounds)
}

// MultiConnThroughput runs the both-way multi-connection streaming test:
// both processes send perConn messages round-robin over every connection;
// the result is the aggregate data rate in MB/s.
func MultiConnThroughput(kind cluster.Kind, nconn, size, perConn int) float64 {
	r := newMultiConnRig(cluster.New(kind, 2), nconn, size)
	defer r.tb.Close()
	var start, endA, endB sim.Time
	total := nconn * perConn * size
	r.tb.Eng.Go("send-a", func(p *sim.Proc) {
		start = p.Now()
		var id uint64
		for i := 0; i < perConn; i++ {
			for c := 0; c < nconn; c++ {
				id++
				r.qa[c].PostSend(p, verbs.WR{ID: id, Op: verbs.OpWrite, Local: r.srcA[c], Len: size, RemoteKey: r.dstBKeys[c]})
			}
		}
		// Drain incoming traffic from B.
		got := 0
		for got < total {
			for c := 0; c < nconn && got < total; c++ {
				waitPlacedAny(p, r.qa[c], &got)
			}
		}
		endA = p.Now()
	})
	r.tb.Eng.Go("send-b", func(p *sim.Proc) {
		var id uint64
		for i := 0; i < perConn; i++ {
			for c := 0; c < nconn; c++ {
				id++
				r.qb[c].PostSend(p, verbs.WR{ID: id, Op: verbs.OpWrite, Local: r.srcB[c], Len: size, RemoteKey: r.dstAKeys[c]})
			}
		}
		got := 0
		for got < total {
			for c := 0; c < nconn && got < total; c++ {
				waitPlacedAny(p, r.qb[c], &got)
			}
		}
		endB = p.Now()
	})
	mustRun(r.tb)
	end := endA
	if endB > end {
		end = endB
	}
	return sim.MBpsOf(int64(2*total), end-start)
}

// waitPlacedAny consumes one placement notification (any length) if the
// queue has one, else blocks for the next.
func waitPlacedAny(p *sim.Proc, qp verbs.QP, got *int) {
	pl := qp.Placements().Get(p)
	*got += pl.Len
}

// Fig2Latency reproduces one network's normalized multiple-connection
// latency panel of Figure 2.
func Fig2Latency(kind cluster.Kind, sizes, conns []int, rounds int) Figure {
	fig := Figure{
		ID:     "fig2-latency-" + kind.String(),
		Title:  "Effect of multiple connections on " + kind.String() + " (latency)",
		XLabel: "connections",
		YLabel: "normalized multiple-connection latency (us)",
	}
	fig.Series = gridSeries(sizeLabels(sizes), floats(conns), func(si, xi int) float64 {
		return MultiConnLatency(kind, conns[xi], sizes[si], rounds).Micros()
	})
	return fig
}

// sizeLabels renders the per-size series labels of the Figure 2 panels.
func sizeLabels(sizes []int) []string {
	labels := make([]string, len(sizes))
	for i, size := range sizes {
		labels[i] = "Msg=" + fmtX(float64(size)) + "B"
	}
	return labels
}

// Fig2Throughput reproduces one network's multi-connection throughput panel
// of Figure 2.
func Fig2Throughput(kind cluster.Kind, sizes, conns []int, perConn int) Figure {
	fig := Figure{
		ID:     "fig2-throughput-" + kind.String(),
		Title:  "Effect of multiple connections on " + kind.String() + " (throughput)",
		XLabel: "connections",
		YLabel: "throughput (MB/s)",
	}
	fig.Series = gridSeries(sizeLabels(sizes), floats(conns), func(si, xi int) float64 {
		return MultiConnThroughput(kind, conns[xi], sizes[si], perConn)
	})
	return fig
}

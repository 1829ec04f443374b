package bench

import (
	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/sockets"
	"repro/internal/udapl"
)

// This file implements the study the paper's Section 7 leaves as future
// work: "we intend to extend our study to include uDAPL, sockets, and
// applications". Four sockets stacks (kernel TCP, TOE, SDP over iWARP, SDP
// over IB) and the uDAPL veneer are measured with the same ping-pong and
// streaming workloads as Figures 1 and 4.

// socketPair builds one named socket stack on a fresh two-host testbed.
func socketPair(label string) (*cluster.Testbed, sockets.Endpoint, sockets.Endpoint) {
	switch label {
	case "TCP/host":
		return sockets.NewHostTCPPair(sockets.DefaultHostTCPConfig())
	case "TCP/TOE":
		return sockets.NewTOEPair(sockets.DefaultTOEConfig())
	case "SDP/iWARP":
		return sockets.NewSDPPair(cluster.IWARP, sockets.DefaultSDPConfig())
	case "SDP/IB":
		return sockets.NewSDPPair(cluster.IB, sockets.DefaultSDPConfig())
	}
	panic("bench: unknown socket stack " + label)
}

// SocketStacks lists the compared stream stacks.
var SocketStacks = []string{"TCP/host", "TCP/TOE", "SDP/iWARP", "SDP/IB"}

// SocketLatency measures one-way ping-pong latency of a socket stack.
func SocketLatency(label string, size, iters int) sim.Time {
	tb, a, b := socketPair(label)
	defer tb.Close()
	bufA := tb.Hosts[0].Mem.Alloc(size)
	bufB := tb.Hosts[1].Mem.Alloc(size)
	const warmup = 2
	var rtt sim.Time
	tb.Go(0, "side-a", func(p *sim.Proc) {
		for i := 0; i < warmup+iters; i++ {
			if i == warmup {
				rtt = -p.Now()
			}
			a.Send(p, bufA, 0, size)
			a.Recv(p, bufA, 0, size)
		}
		rtt += p.Now()
	})
	tb.Go(1, "side-b", func(p *sim.Proc) {
		for i := 0; i < warmup+iters; i++ {
			b.Recv(p, bufB, 0, size)
			b.Send(p, bufB, 0, size)
		}
	})
	mustRun(tb)
	return rtt / sim.Time(2*iters)
}

// SocketBandwidth measures one-way streaming goodput of a socket stack in
// MB/s.
func SocketBandwidth(label string, chunk, count int) float64 {
	tb, a, b := socketPair(label)
	defer tb.Close()
	bufA := tb.Hosts[0].Mem.Alloc(chunk)
	bufB := tb.Hosts[1].Mem.Alloc(chunk)
	var start, end sim.Time
	// One warmup transfer keeps first-use registration (SDP zcopy) off the
	// measured path, as the paper's averaged iterations do.
	tb.Go(0, "tx", func(p *sim.Proc) {
		a.Send(p, bufA, 0, chunk)
		start = p.Now()
		for i := 0; i < count; i++ {
			a.Send(p, bufA, 0, chunk)
		}
	})
	tb.Go(1, "rx", func(p *sim.Proc) {
		b.Recv(p, bufB, 0, chunk)
		for i := 0; i < count; i++ {
			b.Recv(p, bufB, 0, chunk)
		}
		end = p.Now()
	})
	mustRun(tb)
	return sim.MBpsOf(int64(chunk)*int64(count), end-start)
}

// ExtSocketsLatency compares the sockets stacks' ping-pong latency.
func ExtSocketsLatency(sizes []int) Figure {
	fig := Figure{
		ID:     "ext-sockets-latency",
		Title:  "Sockets-API inter-node latency (Section 7 extension)",
		XLabel: "bytes",
		YLabel: "one-way latency (us)",
	}
	fig.Series = gridSeries(SocketStacks, floats(sizes), func(si, xi int) float64 {
		return SocketLatency(SocketStacks[si], sizes[xi], itersFor(sizes[xi])).Micros()
	})
	return fig
}

// ExtSocketsBandwidth compares the sockets stacks' streaming goodput.
func ExtSocketsBandwidth(sizes []int) Figure {
	fig := Figure{
		ID:     "ext-sockets-bandwidth",
		Title:  "Sockets-API streaming bandwidth (Section 7 extension)",
		XLabel: "bytes",
		YLabel: "goodput (MB/s)",
	}
	fig.Series = gridSeries(SocketStacks, floats(sizes), func(si, xi int) float64 {
		size := sizes[xi]
		return SocketBandwidth(SocketStacks[si], size, max(256<<10/size, 8))
	})
	return fig
}

// UDAPLatency measures the uDAPL RDMA-write ping-pong latency on a verbs
// stack, the veneer the paper expects to track raw verbs.
func UDAPLatency(kind cluster.Kind, size, iters int) sim.Time {
	tb := cluster.New(kind, 2)
	defer tb.Close()
	epA, epB := udapl.ConnectPair(tb, 0, 1)
	src := tb.Hosts[0].Mem.Alloc(size)
	dst := tb.Hosts[1].Mem.Alloc(size)
	echoSrc := tb.Hosts[1].Mem.Alloc(size)
	echoDst := tb.Hosts[0].Mem.Alloc(size)
	const warmup = 2
	var rtt sim.Time
	tb.Eng.Go("setup", func(p *sim.Proc) {
		ia0 := udapl.OpenIA(tb.Hosts[0])
		ia1 := udapl.OpenIA(tb.Hosts[1])
		lmrS := ia0.RegisterLMR(p, src, 0, size)
		lmrD := ia0.RegisterLMR(p, echoDst, 0, size)
		lmrBD := ia1.RegisterLMR(p, dst, 0, size)
		lmrBS := ia1.RegisterLMR(p, echoSrc, 0, size)
		tb.Eng.Go("b", func(pb *sim.Proc) {
			var id uint64
			for i := 0; i < warmup+iters; i++ {
				got := 0
				for got < size {
					pl := epB.Placements().Get(pb)
					got += pl.Len
				}
				id++
				epB.PostRDMAWrite(pb, id, lmrBS, 0, size, lmrD.Context(), 0)
			}
		})
		var id uint64
		for i := 0; i < warmup+iters; i++ {
			if i == warmup {
				rtt = -p.Now()
			}
			id++
			epA.PostRDMAWrite(p, id, lmrS, 0, size, lmrBD.Context(), 0)
			got := 0
			for got < size {
				pl := epA.Placements().Get(p)
				got += pl.Len
			}
		}
		rtt += p.Now()
	})
	mustRun(tb)
	return rtt / sim.Time(2*iters)
}

// ExtUDAPL compares uDAPL latency against the raw verbs numbers.
func ExtUDAPL(sizes []int) Figure {
	fig := Figure{
		ID:     "ext-udapl-latency",
		Title:  "uDAPL vs raw verbs latency (Section 7 extension)",
		XLabel: "bytes",
		YLabel: "one-way latency (us)",
	}
	// Series order interleaves uDAPL and raw verbs per kind, so the grid's
	// label axis is (kind, veneer) flattened in that order.
	labels := make([]string, 0, 2*len(cluster.VerbsKinds))
	for _, kind := range cluster.VerbsKinds {
		labels = append(labels, "uDAPL/"+kind.String(), "verbs/"+kind.String())
	}
	fig.Series = gridSeries(labels, floats(sizes), func(si, xi int) float64 {
		kind, size := cluster.VerbsKinds[si/2], sizes[xi]
		if si%2 == 0 {
			return UDAPLatency(kind, size, itersFor(size)).Micros()
		}
		return UserLatency(kind, size, itersFor(size)).Micros()
	})
	return fig
}

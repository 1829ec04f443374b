package bench

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/congestion"
	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// The paper's Section 7: "We plan to put these networks to the test in a
// larger testbed to have a better evaluation of the extent to which the
// multiple-connection performance of the NetEffect device will affect real
// world applications." These drivers scale the node count beyond the
// four-node testbed — across one switch or a multi-switch leaf–spine
// fabric (ScaleOpts.Topology) — and run the communication kernels whose
// connection fan-out grows with the job: Alltoall, Allgather, Allreduce
// and a halo-exchange application kernel.

// ScaleOpts parameterizes the many-rank drivers beyond the paper's
// single-switch defaults.
type ScaleOpts struct {
	// Topology, when non-nil, runs the kernel on a multi-switch fabric
	// (see fabric.LeafSpine / fabric.FatTree); nil is the single switch.
	Topology *fabric.TopologySpec
	// Congestion, when non-nil, arms bounded switch queues and ECN marking
	// on the world's fabric (see fabric.SetCongestion).
	Congestion *fabric.CongestionConfig
	// Background, when non-nil, attaches deterministic background-traffic
	// generators to every port (see congestion.Start): the collective
	// becomes the victim tenant, the generators the aggressor. Rank r
	// stops port r's generator when its timed loop completes, which keeps
	// the background frame history invariant across shard counts.
	Background *congestion.TrafficConfig
	// React arms each stack's honest congestion reaction on its NIC:
	// a DCQCN-style rate limiter for iWARP (cuts on ECN echoes and
	// retransmissions), per-VL credit flow control for IB (the sender
	// stalls when its uplink stops returning credits), and uplink-backlog
	// throttling for the MX flavours (the only signal a Myri-10G NIC can
	// see). The fabric-side thresholds stay under Congestion: lossless
	// stacks (IB, MXoM) run without caps because their hardware never
	// drops, while the Ethernet stacks meet bounded queues.
	React bool
}

// ScaleResult is one many-rank run's measurements.
type ScaleResult struct {
	// Time is the per-iteration completion time at rank 0.
	Time sim.Time
	// TrunkUtilBP is the peak per-direction trunk utilization over the
	// whole run, in basis points (0 on single-switch worlds) — the direct
	// witness that oversubscription concentrates load on the leaf uplinks.
	TrunkUtilBP int64
	// TailDrops and ECNMarks total the fabric's congestion verdicts over
	// the run (zero unless ScaleOpts.Congestion armed the thresholds).
	TailDrops int64
	ECNMarks  int64
	// BgFrames counts the background frames the aggressor tenant offered
	// (zero without ScaleOpts.Background).
	BgFrames int64
}

// scalingConfig is the lean MPI profile of the many-rank worlds: small
// per-peer eager rings (the bounce buffers are real allocated memory, and
// credits x peers x threshold at 64+ ranks would dwarf the experiment),
// one shared eager threshold so the stacks switch protocols at the same
// point, and lazy pair wiring so kernels with sparse communication graphs
// never pay for the silent pairs.
func scalingConfig(kind cluster.Kind) mpi.Config {
	cfg := mpi.ConfigFor(kind)
	if cfg.EagerCredits > 4 {
		cfg.EagerCredits = 4
	}
	if cfg.EagerThreshold > 2<<10 {
		cfg.EagerThreshold = 2 << 10
	}
	cfg.LazyConnect = !kind.IsMX()
	return cfg
}

// scalingWorld builds an n-node world on top of the base cluster options
// (the shard count) with the lean profile, arming the fabric congestion
// thresholds, the per-stack NIC reactions and the background generators
// that ScaleOpts requests. The generators attach after
// cluster.NewWithOptions so their tick chains land on the engines that own
// the ports in sharded worlds.
func scalingWorld(opt cluster.Options, kind cluster.Kind, nodes int, opts ScaleOpts) (*cluster.Testbed, *mpi.World, *congestion.Traffic) {
	opt.Topology = opts.Topology
	opt.Congestion = opts.Congestion
	if opts.React {
		reactOpts(kind, &opt)
	}
	tb := cluster.NewWithOptions(kind, nodes, opt)
	w := mpi.NewWorld(tb, scalingConfig(kind))
	var tr *congestion.Traffic
	if opts.Background != nil {
		tr = congestion.Start(tb.Fabric, *opts.Background)
	}
	return tb, w, tr
}

// collectiveScale runs one kernel on every rank: kernel allocates the
// rank's buffers and returns the per-iteration body. Every rank runs one
// untimed warmup iteration first — it wires the lazy QP mesh and warms the
// buffer pools, so the timed iterations measure the kernel, not MPI_Init
// spread across first touches. Run errors (fault-injected worlds that
// panic a protocol invariant, impossible schedules) are returned, not
// panicked: a degraded topology cell renders as a missing point.
func collectiveScale(kind cluster.Kind, nodes, iters int, opts ScaleOpts,
	kernel func(p *mpi.Process, pr *sim.Proc) func(*sim.Proc)) (ScaleResult, error) {
	tb, w, tr := scalingWorld(shardOpts(), kind, nodes, opts)
	defer tb.Close()
	var res ScaleResult
	for r := 0; r < nodes; r++ {
		r := r
		p := w.Rank(r)
		tb.Go(r, fmt.Sprintf("rank%d", r), func(pr *sim.Proc) {
			iter := kernel(p, pr)
			iter(pr) // warmup: wires lazy pairs, off the measured path
			p.Barrier(pr)
			start := p.Wtime(pr)
			for i := 0; i < iters; i++ {
				iter(pr)
				p.Barrier(pr)
			}
			if r == 0 {
				res.Time = (p.Wtime(pr) - start) / sim.Time(iters)
			}
			if tr != nil {
				// Rank r owns port r's generator: stopping it here — on
				// the port's own engine, at a time set only by this rank's
				// progress — keeps the aggressor's frame sequence
				// shard-count-invariant and lets the world go idle.
				tr.Stop(fabric.NodeID(r))
			}
		})
	}
	if err := tb.Run(); err != nil {
		return ScaleResult{}, err
	}
	res.TrunkUtilBP = tb.Fabric.MaxTrunkUtilBP()
	res.TailDrops = tb.Fabric.TailDropped()
	res.ECNMarks = tb.Fabric.ECNMarked()
	if tr != nil {
		res.BgFrames = tr.FramesSent()
	}
	return res, nil
}

// AlltoallScale measures one n-byte-per-pair Alltoall across `nodes` ranks.
func AlltoallScale(kind cluster.Kind, nodes, n, iters int, opts ScaleOpts) (ScaleResult, error) {
	return collectiveScale(kind, nodes, iters, opts, func(p *mpi.Process, pr *sim.Proc) func(*sim.Proc) {
		send := p.Host().Mem.Alloc(nodes * n)
		recv := p.Host().Mem.Alloc(nodes * n)
		return func(pr *sim.Proc) { p.Alltoall(pr, send, recv, n) }
	})
}

// AllgatherScale measures one n-byte-per-rank Allgather across `nodes`.
func AllgatherScale(kind cluster.Kind, nodes, n, iters int, opts ScaleOpts) (ScaleResult, error) {
	return collectiveScale(kind, nodes, iters, opts, func(p *mpi.Process, pr *sim.Proc) func(*sim.Proc) {
		buf := p.Host().Mem.Alloc(nodes * n)
		return func(pr *sim.Proc) { p.Allgather(pr, buf, n) }
	})
}

// AllreduceScale measures one n-byte Allreduce (float64 sum) across `nodes`.
func AllreduceScale(kind cluster.Kind, nodes, n, iters int, opts ScaleOpts) (ScaleResult, error) {
	if n%8 != 0 {
		panic(fmt.Sprintf("bench: allreduce size %d is not a float64 vector", n))
	}
	return collectiveScale(kind, nodes, iters, opts, func(p *mpi.Process, pr *sim.Proc) func(*sim.Proc) {
		buf := p.Host().Mem.Alloc(n)
		return func(pr *sim.Proc) { p.Allreduce(pr, mpi.SumFloat64, buf, 0, n) }
	})
}

// HaloScale measures one halo-exchange step on a periodic px x py process
// grid (rank = y*px + x): every rank swaps an n-byte face with each grid
// neighbour via non-blocking send/recv pairs — the communication kernel of
// stencil applications, and the sparse-graph case LazyConnect exists for.
// Column neighbours sit px ranks apart, so once px exceeds the hosts per
// leaf every column exchange crosses the trunks.
func HaloScale(kind cluster.Kind, px, py, n, iters int, opts ScaleOpts) (ScaleResult, error) {
	nodes := px * py
	// Face tags per direction; matching is per (src, tag), and distances
	// are symmetric, so reuse across rounds is unambiguous.
	const tagX, tagY = 1, 2
	return collectiveScale(kind, nodes, iters, opts, func(p *mpi.Process, pr *sim.Proc) func(*sim.Proc) {
		x, y := p.Rank()%px, p.Rank()/px
		var peers []int
		var tags []int
		if px > 1 {
			peers = append(peers, y*px+(x+1)%px, y*px+(x-1+px)%px)
			tags = append(tags, tagX, tagX)
		}
		if py > 1 {
			peers = append(peers, ((y+1)%py)*px+x, ((y-1+py)%py)*px+x)
			tags = append(tags, tagY, tagY)
		}
		sbuf := p.Host().Mem.Alloc(max(len(peers), 1) * n)
		rbuf := p.Host().Mem.Alloc(max(len(peers), 1) * n)
		reqs := make([]*mpi.Request, 0, 2*len(peers))
		return func(pr *sim.Proc) {
			reqs = reqs[:0]
			for i, peer := range peers {
				reqs = append(reqs,
					p.Isend(pr, peer, tags[i], sbuf, i*n, n),
					p.Irecv(pr, peer, tags[i], rbuf, i*n, n))
			}
			p.WaitAll(pr, reqs)
		}
	})
}

// ExtScalingAlltoall builds the node-count sweep for Alltoall (the
// connection-fan-out stressor: at 16 nodes each verbs process drives 15 QP
// pairs, where the IB context cache has long since overflowed).
func ExtScalingAlltoall(nodeCounts []int, n int) Figure {
	return extScaling("Alltoall", "pair", nodeCounts, n, AlltoallScale)
}

// ExtScalingAllgather builds the node-count sweep for Allgather.
func ExtScalingAllgather(nodeCounts []int, n int) Figure {
	return extScaling("Allgather", "rank", nodeCounts, n, AllgatherScale)
}

// extScaling sweeps one collective's single-switch completion time over
// the node counts, n bytes per `per`.
func extScaling(name, per string, nodeCounts []int, n int,
	run func(kind cluster.Kind, nodes, n, iters int, opts ScaleOpts) (ScaleResult, error)) Figure {
	op := strings.ToLower(name)
	fig := Figure{
		ID:     "ext-scaling-" + op,
		Title:  fmt.Sprintf("%s completion time vs cluster size (%dB per %s)", name, n, per),
		XLabel: "nodes",
		YLabel: "time per " + op + " (us)",
	}
	fig.Series = gridSeries(kindLabels(""), floats(nodeCounts), func(si, xi int) float64 {
		res, err := run(cluster.Kinds[si], nodeCounts[xi], n, 4, ScaleOpts{})
		if err != nil {
			panic(fmt.Sprintf("bench: clean %s run failed: %v", op, err))
		}
		return res.Time.Micros()
	})
	return fig
}

// Command netbench runs a single micro-benchmark on one simulated network,
// like running the paper's individual test programs by hand.
//
// Usage examples:
//
//	netbench -net iwarp -test latency -size 4
//	netbench -net ib -test bandwidth -mode bothway -size 1048576
//	netbench -net iwarp -test multiconn -size 1024 -conns 64
//	netbench -net mxom -test logp -size 1024
//	netbench -net ib -test reuse -size 262144
//	netbench -net mxoe -test queue -queue recv -depth 256 -size 16
//	netbench -net iwarp -test alltoall -nodes 16 -ratio 4 -congested -bgload 0.3 -bgshape incast
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/congestion"
	"repro/internal/faults"
	"repro/internal/logp"
	"repro/internal/parallel"
)

func main() {
	netName := flag.String("net", "iwarp", "network: iwarp | ib | mxom | mxoe")
	test := flag.String("test", "latency", "test: latency | userlatency | bandwidth | multiconn | logp | reuse | queue | overlap | progress | hotspot | alltoall | sockets | udapl")
	size := flag.Int("size", 4, "message size in bytes")
	mode := flag.String("mode", "uni", "bandwidth mode: uni | bidi | bothway")
	conns := flag.Int("conns", 8, "connection count for -test multiconn")
	nodes := flag.Int("nodes", 4, "cluster size for -test alltoall / senders+1 for -test hotspot")
	depth := flag.Int("depth", 256, "queue depth for -test queue")
	queue := flag.String("queue", "unexpected", "queue flavour: unexpected | recv")
	iters := flag.Int("iters", 20, "iterations")
	traceFile := flag.String("trace", "", "write a Chrome trace_event JSON file (open in chrome://tracing or ui.perfetto.dev)")
	traceJSONL := flag.String("tracejsonl", "", "write the trace as JSON lines with raw picosecond timestamps")
	traceCap := flag.Int("tracecap", 0, "trace buffer capacity in events (0 = default)")
	metricsFlag := flag.Bool("metrics", false, "dump the metrics registry as JSON to stdout after the test")
	faultsFile := flag.String("faults", "", "apply a fault scenario (JSON, see docs/faults.md) to every testbed the test builds")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "concurrent experiment worlds for tests that build several")
	shards := flag.Int("shards", 0, "engines per world for shard-aware tests (0 and 1 = one engine; output is identical at any value)")
	ratio := flag.Int("ratio", 0, "leaf-spine oversubscription ratio for -test alltoall (0 = single switch)")
	congested := flag.Bool("congested", false, "arm the stack's congestion control and the fabric's bounded queues for -test alltoall")
	bgload := flag.Float64("bgload", 0, "background-traffic load per source in (0, 1] for -test alltoall (0 = no aggressor)")
	bgshape := flag.String("bgshape", "incast", "background-traffic shape: permutation | hotspot | incast | outcast")
	bgseed := flag.Uint64("bgseed", bench.CongestionSeed, "background-traffic seed (same seed = same frame sequence)")
	flag.Parse()

	parallel.SetJobs(*jobs)
	if *test != "alltoall" && (*bgload != 0 || *congested || *ratio != 0) {
		fmt.Fprintln(os.Stderr, "netbench: -bgload, -congested and -ratio shape the loaded collective world; they only apply to -test alltoall")
		os.Exit(2)
	}
	if *bgload < 0 || *bgload > 1 {
		fmt.Fprintf(os.Stderr, "netbench: -bgload %v outside (0, 1]\n", *bgload)
		os.Exit(2)
	}
	if *ratio < 0 {
		fmt.Fprintf(os.Stderr, "netbench: -ratio %d is negative\n", *ratio)
		os.Exit(2)
	}
	if *bgload == 0 && (*bgshape != "incast" || *bgseed != bench.CongestionSeed) {
		fmt.Fprintln(os.Stderr, "netbench: -bgshape and -bgseed parameterize the aggressor; set -bgload > 0 to start one")
		os.Exit(2)
	}
	bench.SetShards(*shards)

	kind, ok := parseKind(*netName)
	if !ok {
		fmt.Fprintf(os.Stderr, "netbench: unknown network %q (iwarp, ib, mxom, mxoe)\n", *netName)
		os.Exit(2)
	}

	var scenario *faults.Scenario
	if *faultsFile != "" {
		sc, err := faults.Load(*faultsFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "netbench: %v\n", err)
			os.Exit(2)
		}
		scenario = sc
	}

	var lastTB *cluster.Testbed
	if *traceFile != "" || *traceJSONL != "" || *metricsFlag || scenario != nil {
		// The OnNew hook captures "the last testbed built", which only means
		// something when worlds are built one at a time; tracing a -j N run
		// would also interleave unrelated worlds' events. Run sequentially.
		parallel.SetJobs(1)
		observe := *traceFile != "" || *traceJSONL != "" || *metricsFlag
		cluster.OnNew = func(tb *cluster.Testbed) {
			if observe && tb.Shards() > 1 {
				// Shard engines keep per-shard traces and registries; the
				// single-engine dump below would silently miss the other
				// shards' events, so refuse the combination instead of lying.
				fmt.Fprintf(os.Stderr, "netbench: -trace/-tracejsonl/-metrics cannot dump a world split across %d shard engines; use -shards 1 or drop the observability flags\n", tb.Shards())
				os.Exit(2)
			}
			lastTB = tb
			if *traceFile != "" || *traceJSONL != "" {
				tb.Eng.StartTrace(*traceCap)
			}
			if scenario != nil {
				if _, err := tb.ApplyFaults(scenario); err != nil {
					fmt.Fprintf(os.Stderr, "netbench: applying faults: %v\n", err)
					os.Exit(2)
				}
			}
		}
		if observe {
			defer dumpObservability(&lastTB, *traceFile, *traceJSONL, *metricsFlag)
		}
	}

	switch *test {
	case "latency":
		lat := bench.MPILatency(kind, *size, *iters)
		fmt.Printf("%s MPI ping-pong latency, %d B: %.3f us\n", kind, *size, lat.Micros())
	case "userlatency":
		lat := bench.UserLatency(kind, *size, *iters)
		fmt.Printf("%s user-level ping-pong latency, %d B: %.3f us\n", kind, *size, lat.Micros())
	case "bandwidth":
		var m bench.BandwidthMode
		switch *mode {
		case "uni":
			m = bench.Unidirectional
		case "bidi":
			m = bench.Bidirectional
		case "bothway":
			m = bench.BothWay
		default:
			fmt.Fprintf(os.Stderr, "netbench: unknown bandwidth mode %q (uni, bidi, bothway)\n", *mode)
			os.Exit(2)
		}
		bw := bench.MPIBandwidth(kind, m, *size, max(*iters/4, 2))
		fmt.Printf("%s MPI %s bandwidth, %d B: %.1f MB/s\n", kind, m, *size, bw)
	case "multiconn":
		if !kind.IsMX() {
			lat := bench.MultiConnLatency(kind, *conns, *size, 8)
			tput := bench.MultiConnThroughput(kind, *conns, *size, 12)
			fmt.Printf("%s %d connections, %d B: normalized latency %.3f us, throughput %.1f MB/s\n",
				kind, *conns, *size, lat.Micros(), tput)
		} else {
			fmt.Fprintln(os.Stderr, "netbench: multiconn compares the two QP/verbs stacks (iwarp, ib)")
			os.Exit(2)
		}
	case "logp":
		p := logp.Measure(kind, *size)
		fmt.Printf("%s LogP at %d B: g=%.2f us, Os=%.2f us, Or=%.2f us\n",
			kind, *size, p.G.Micros(), p.Os.Micros(), p.Or.Micros())
	case "reuse":
		r := bench.BufferReuseRatio(kind, *size)
		fmt.Printf("%s buffer re-use ratio at %d B: %.2f\n", kind, *size, r)
	case "queue":
		var empty, loaded float64
		switch *queue {
		case "unexpected":
			empty = bench.UnexpectedQueueLatency(kind, *size, 0, *iters).Micros()
			loaded = bench.UnexpectedQueueLatency(kind, *size, *depth, *iters).Micros()
		case "recv":
			empty = bench.ReceiveQueueLatency(kind, *size, 0, *iters).Micros()
			loaded = bench.ReceiveQueueLatency(kind, *size, *depth, *iters).Micros()
		default:
			fmt.Fprintf(os.Stderr, "netbench: unknown queue %q (unexpected, recv)\n", *queue)
			os.Exit(2)
		}
		fmt.Printf("%s %s-queue effect, %d B, depth %d: %.2f us -> %.2f us (ratio %.2f)\n",
			kind, *queue, *size, *depth, empty, loaded, loaded/empty)
	case "overlap":
		r := bench.OverlapRatio(kind, *size, max(*iters/4, 2))
		fmt.Printf("%s overlap ratio at %d B: %.2f (1 = compute fully hidden)\n", kind, *size, r)
	case "progress":
		r := bench.ProgressRatio(kind, *size, max(*iters/4, 2))
		fmt.Printf("%s independent-progress ratio at %d B: %.2f\n", kind, *size, r)
	case "hotspot":
		lat := bench.HotspotLatency(kind, *nodes-1, *size, *iters)
		fmt.Printf("%s hotspot with %d senders, %d B: %.2f us per sender\n", kind, *nodes-1, *size, lat.Micros())
	case "alltoall":
		shape, err := congestion.ParseShape(*bgshape)
		if err != nil {
			fmt.Fprintf(os.Stderr, "netbench: %v\n", err)
			os.Exit(2)
		}
		opts := bench.CongestionOpts(kind, *ratio, *congested, shape, *bgload, *bgseed)
		res, err := bench.AlltoallScale(kind, *nodes, *size, max(*iters/4, 2), opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "netbench: alltoall run failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%s alltoall on %d nodes, %d B per pair: %.2f us\n", kind, *nodes, *size, res.Time.Micros())
		if *congested || *bgload > 0 {
			fmt.Printf("  fabric: %d tail drops, %d ECN marks, %d background frames (%s at load %.2f)\n",
				res.TailDrops, res.ECNMarks, res.BgFrames, shape, *bgload)
		}
	case "sockets":
		for _, stack := range bench.SocketStacks {
			lat := bench.SocketLatency(stack, *size, *iters)
			bw := bench.SocketBandwidth(stack, max(*size, 4096), 32)
			fmt.Printf("%-10s %d B latency %.2f us, streaming %.1f MB/s\n", stack, *size, lat.Micros(), bw)
		}
	case "udapl":
		if kind.IsMX() {
			fmt.Fprintln(os.Stderr, "netbench: udapl runs on the verbs stacks (iwarp, ib)")
			os.Exit(2)
		}
		lat := bench.UDAPLatency(kind, *size, *iters)
		raw := bench.UserLatency(kind, *size, *iters)
		fmt.Printf("%s uDAPL %d B: %.2f us (raw verbs %.2f us)\n", kind, *size, lat.Micros(), raw.Micros())
	default:
		fmt.Fprintf(os.Stderr, "netbench: unknown test %q\n", *test)
		os.Exit(2)
	}
}

// dumpObservability writes the requested trace and metrics artifacts from
// the last testbed the run built.
func dumpObservability(tbp **cluster.Testbed, traceFile, traceJSONL string, metrics bool) {
	tb := *tbp
	if tb == nil {
		fmt.Fprintln(os.Stderr, "netbench: no testbed was built; nothing to dump")
		return
	}
	tr := tb.Eng.Trc()
	if traceFile != "" {
		if err := tr.WriteChromeFile(traceFile); err != nil {
			fmt.Fprintf(os.Stderr, "netbench: writing trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace: %d events to %s (%d dropped)\n", tr.Len(), traceFile, tr.Dropped())
	}
	if traceJSONL != "" {
		f, err := os.Create(traceJSONL)
		if err == nil {
			err = tr.WriteJSONL(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "netbench: writing trace jsonl: %v\n", err)
			os.Exit(1)
		}
	}
	if metrics {
		tb.Fabric.PublishLinkMetrics()
		if err := tb.Eng.Metrics().WriteJSON(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "netbench: writing metrics: %v\n", err)
			os.Exit(1)
		}
	}
}

func parseKind(s string) (cluster.Kind, bool) {
	switch strings.ToLower(s) {
	case "iwarp":
		return cluster.IWARP, true
	case "ib", "infiniband":
		return cluster.IB, true
	case "mxom", "myrinet":
		return cluster.MXoM, true
	case "mxoe":
		return cluster.MXoE, true
	}
	return 0, false
}

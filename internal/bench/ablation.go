package bench

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/ib"
	"repro/internal/iwarp"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// This file holds the ablation studies DESIGN.md calls out: each isolates
// one of the architectural mechanisms the reproduction credits for a paper
// result and shows the result degrade (or change) when the mechanism is
// removed or resized.

// AblatePipelineWidth sweeps the iWARP protocol-engine pipeline width and
// reports the normalized multi-connection latency at `conns` connections:
// Figure 2's iWARP scalability story requires a wide pipeline.
func AblatePipelineWidth(widths []int, conns, size int) Figure {
	fig := Figure{
		ID:     "ablation-pipeline-width",
		Title:  fmt.Sprintf("iWARP pipeline width vs normalized latency (%d connections)", conns),
		XLabel: "pipeline width",
		YLabel: "normalized multi-connection latency (us)",
	}
	s := Series{Label: fmt.Sprintf("%d conns, %dB", conns, size)}
	for _, w := range widths {
		cfg := iwarp.DefaultConfig()
		cfg.PipelineWidth = w
		tb := cluster.NewWithOptions(cluster.IWARP, 2, cluster.Options{IWARP: &cfg})
		lat := MultiConnLatencyOn(tb, conns, size, 6)
		s.Points = append(s.Points, Point{X: float64(w), Y: lat.Micros()})
	}
	fig.Series = append(fig.Series, s)
	return fig
}

// AblateCtxCache sweeps the IB HCA's QP-context cache size at a fixed
// connection count: Figure 2's 8-connection knee follows the cache size.
func AblateCtxCache(cacheSizes []int, conns, size int) Figure {
	fig := Figure{
		ID:     "ablation-ctx-cache",
		Title:  fmt.Sprintf("IB QP context cache size vs normalized latency (%d connections)", conns),
		XLabel: "context cache entries",
		YLabel: "normalized multi-connection latency (us)",
	}
	s := Series{Label: fmt.Sprintf("%d conns, %dB", conns, size)}
	for _, cs := range cacheSizes {
		cfg := ib.DefaultConfig()
		cfg.CtxCacheSize = cs
		tb := cluster.NewWithOptions(cluster.IB, 2, cluster.Options{IB: &cfg})
		lat := MultiConnLatencyOn(tb, conns, size, 6)
		s.Points = append(s.Points, Point{X: float64(cs), Y: lat.Micros()})
	}
	fig.Series = append(fig.Series, s)
	return fig
}

// AblateMPAMarkers compares iWARP user-level latency and bandwidth with and
// without MPA markers/CRC (the framing tax of running RDMA over a stream
// transport).
func AblateMPAMarkers(size int) Figure {
	fig := Figure{
		ID:     "ablation-mpa-markers",
		Title:  "iWARP MPA framing on/off",
		XLabel: "bytes",
		YLabel: "one-way latency (us)",
	}
	for _, markers := range []bool{true, false} {
		label := "markers+CRC"
		if !markers {
			label = "bare DDP"
		}
		cfg := iwarp.DefaultConfig()
		cfg.Framing = iwarp.Framing{Markers: markers, CRC: markers}
		s := Series{Label: label}
		for _, n := range []int{64, 8 << 10, 64 << 10, size} {
			tb := cluster.NewWithOptions(cluster.IWARP, 2, cluster.Options{IWARP: &cfg})
			lat := VerbsUserLatencyOn(tb, n, 8)
			tb.Close()
			s.Points = append(s.Points, Point{X: float64(n), Y: lat.Micros()})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// AblateEagerThreshold sweeps the MPI eager/rendezvous switch point on the
// IB stack and reports the ping-pong latency at a fixed message size that
// straddles the thresholds: Figure 4's dips move with the threshold.
func AblateEagerThreshold(thresholds []int, size int) Figure {
	fig := Figure{
		ID:     "ablation-eager-threshold",
		Title:  fmt.Sprintf("Eager/rendezvous threshold vs MPI latency (%d-byte messages, IB)", size),
		XLabel: "eager threshold (bytes)",
		YLabel: "one-way latency (us)",
	}
	s := Series{Label: fmt.Sprintf("%dB", size)}
	for _, th := range thresholds {
		cfg := mpi.ConfigFor(cluster.IB)
		cfg.EagerThreshold = th
		tb := cluster.New(cluster.IB, 2)
		lat := mpiLatencyOn(tb, mpi.NewWorld(tb, cfg), size, 12)
		tb.Close()
		s.Points = append(s.Points, Point{X: float64(th), Y: lat.Micros()})
	}
	fig.Series = append(fig.Series, s)
	return fig
}

// AblateMXRegCache compares the Myrinet buffer re-use ratio with the
// registration cache on and off (the paper's own Section 6.4 ablation).
func AblateMXRegCache(size int) Figure {
	fig := Figure{
		ID:     "ablation-mx-regcache",
		Title:  "MX registration cache on/off: buffer re-use ratio",
		XLabel: "bytes",
		YLabel: "ratio of no re-use to full re-use latency",
	}
	on := Series{Label: "cache on"}
	on.Points = append(on.Points, Point{X: float64(size), Y: BufferReuseRatio(cluster.MXoM, size)})
	off := Series{Label: "cache off"}
	off.Points = append(off.Points, Point{X: float64(size), Y: bufferReuseRatio(size, noRegCacheWorld)})
	fig.Series = append(fig.Series, on, off)
	return fig
}

// AblateNICMatchCost sweeps the MX NIC's per-entry match cost and reports
// the Figure 8 receive-queue ratio: Myrinet's worst-in-class result there is
// driven by this single constant.
func AblateNICMatchCost(costsNs []int, depth int) Figure {
	fig := Figure{
		ID:     "ablation-mx-match-cost",
		Title:  fmt.Sprintf("MX NIC match cost vs receive-queue ratio (depth %d)", depth),
		XLabel: "per-entry match cost (ns)",
		YLabel: "latency ratio (loaded / empty)",
	}
	s := Series{Label: fmt.Sprintf("16B, depth %d", depth)}
	for _, ns := range costsNs {
		cfg := cluster.MXConfig(cluster.MXoM)
		cfg.MatchPerEntry = sim.Time(ns) * sim.Nanosecond
		lat := func(depth int) sim.Time {
			tb := cluster.NewWithOptions(cluster.MXoM, 2, cluster.Options{MX: &cfg})
			defer tb.Close()
			return receiveQueueLatencyOn(tb, mpi.NewWorld(tb, queueConfig(cluster.MXoM, depth)), 16, depth, 8)
		}
		empty := lat(0)
		loaded := lat(depth)
		s.Points = append(s.Points, Point{X: float64(ns), Y: float64(loaded) / float64(empty)})
	}
	fig.Series = append(fig.Series, s)
	return fig
}

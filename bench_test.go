// Package repro's benchmark suite regenerates every figure of the paper
// (one Benchmark per panel) plus the ablation studies from DESIGN.md.
//
// Each benchmark runs the corresponding simulated experiment and reports
// the headline result as a custom metric in *virtual* time or rate
// (virt-us, virt-MB/s, ratio): wall-clock ns/op measures the simulator
// itself, the custom metrics reproduce the paper. Run with:
//
//	go test -bench=. -benchmem
package repro

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/logp"
	"repro/internal/sim"
)

func BenchmarkFig1_UserLevelLatency(b *testing.B) {
	for _, kind := range cluster.Kinds {
		for _, size := range []int{4, 1 << 10, 64 << 10} {
			b.Run(fmt.Sprintf("%s/%dB", kind, size), func(b *testing.B) {
				var lat sim.Time
				for i := 0; i < b.N; i++ {
					lat = bench.UserLatency(kind, size, 10)
				}
				b.ReportMetric(lat.Micros(), "virt-us")
			})
		}
	}
}

func BenchmarkFig1_UserLevelBandwidth(b *testing.B) {
	for _, kind := range cluster.Kinds {
		b.Run(kind.String(), func(b *testing.B) {
			var bw float64
			for i := 0; i < b.N; i++ {
				lat := bench.UserLatency(kind, 1<<20, 3)
				bw = sim.MBpsOf(1<<20, lat)
			}
			b.ReportMetric(bw, "virt-MB/s")
		})
	}
}

func BenchmarkFig2_MultiConnectionLatency(b *testing.B) {
	for _, kind := range cluster.VerbsKinds {
		for _, conns := range []int{1, 8, 64, 256} {
			b.Run(fmt.Sprintf("%s/conns-%d", kind, conns), func(b *testing.B) {
				var lat sim.Time
				for i := 0; i < b.N; i++ {
					lat = bench.MultiConnLatency(kind, conns, 1<<10, 6)
				}
				b.ReportMetric(lat.Micros(), "virt-us")
			})
		}
	}
}

func BenchmarkFig2_MultiConnectionThroughput(b *testing.B) {
	for _, kind := range cluster.VerbsKinds {
		for _, conns := range []int{1, 8, 64} {
			b.Run(fmt.Sprintf("%s/conns-%d", kind, conns), func(b *testing.B) {
				var tput float64
				for i := 0; i < b.N; i++ {
					tput = bench.MultiConnThroughput(kind, conns, 1<<10, 10)
				}
				b.ReportMetric(tput, "virt-MB/s")
			})
		}
	}
}

func BenchmarkFig3_MPILatency(b *testing.B) {
	for _, kind := range cluster.Kinds {
		b.Run(kind.String(), func(b *testing.B) {
			var lat sim.Time
			for i := 0; i < b.N; i++ {
				lat = bench.MPILatency(kind, 4, 20)
			}
			b.ReportMetric(lat.Micros(), "virt-us")
		})
	}
}

func BenchmarkFig3_MPIOverhead(b *testing.B) {
	for _, kind := range cluster.Kinds {
		b.Run(kind.String(), func(b *testing.B) {
			var overhead float64
			for i := 0; i < b.N; i++ {
				user := bench.UserLatency(kind, 4, 20)
				mlat := bench.MPILatency(kind, 4, 20)
				overhead = 100 * float64(mlat-user) / float64(user)
			}
			b.ReportMetric(overhead, "virt-%")
		})
	}
}

func BenchmarkFig4_MPIBandwidth(b *testing.B) {
	modes := []bench.BandwidthMode{bench.Unidirectional, bench.Bidirectional, bench.BothWay}
	for _, kind := range cluster.Kinds {
		for _, mode := range modes {
			b.Run(fmt.Sprintf("%s/%s", kind, mode), func(b *testing.B) {
				var bw float64
				for i := 0; i < b.N; i++ {
					bw = bench.MPIBandwidth(kind, mode, 1<<20, 2)
				}
				b.ReportMetric(bw, "virt-MB/s")
			})
		}
	}
}

func BenchmarkFig5_LogPGap(b *testing.B) {
	for _, kind := range cluster.Kinds {
		b.Run(kind.String(), func(b *testing.B) {
			var g sim.Time
			for i := 0; i < b.N; i++ {
				g = logp.Gap(kind, 1, 48)
			}
			b.ReportMetric(g.Micros(), "virt-us")
		})
	}
}

func BenchmarkFig5_LogPSenderOverhead(b *testing.B) {
	for _, kind := range cluster.Kinds {
		b.Run(kind.String(), func(b *testing.B) {
			var os sim.Time
			for i := 0; i < b.N; i++ {
				os = logp.SenderOverhead(kind, 1, 10)
			}
			b.ReportMetric(os.Micros(), "virt-us")
		})
	}
}

func BenchmarkFig5_LogPReceiverOverhead(b *testing.B) {
	for _, kind := range cluster.Kinds {
		for _, size := range []int{1, 64 << 10} {
			b.Run(fmt.Sprintf("%s/%dB", kind, size), func(b *testing.B) {
				var or sim.Time
				for i := 0; i < b.N; i++ {
					or = logp.ReceiverOverhead(kind, size, 3)
				}
				b.ReportMetric(or.Micros(), "virt-us")
			})
		}
	}
}

func BenchmarkFig6_BufferReuse(b *testing.B) {
	cases := []struct {
		kind cluster.Kind
		size int
	}{
		{cluster.IWARP, 256 << 10},
		{cluster.IB, 128 << 10},
		{cluster.MXoM, 1 << 20},
		{cluster.MXoE, 1 << 20},
	}
	for _, c := range cases {
		b.Run(fmt.Sprintf("%s/%dKB", c.kind, c.size>>10), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				ratio = bench.BufferReuseRatio(c.kind, c.size)
			}
			b.ReportMetric(ratio, "virt-ratio")
		})
	}
}

func BenchmarkFig7_UnexpectedQueue(b *testing.B) {
	for _, kind := range cluster.Kinds {
		b.Run(kind.String(), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				empty := bench.UnexpectedQueueLatency(kind, 1<<10, 0, 8)
				loaded := bench.UnexpectedQueueLatency(kind, 1<<10, 1024, 8)
				ratio = float64(loaded) / float64(empty)
			}
			b.ReportMetric(ratio, "virt-ratio")
		})
	}
}

func BenchmarkFig8_ReceiveQueue(b *testing.B) {
	for _, kind := range cluster.Kinds {
		b.Run(kind.String(), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				empty := bench.ReceiveQueueLatency(kind, 16, 0, 8)
				loaded := bench.ReceiveQueueLatency(kind, 16, 1024, 8)
				ratio = float64(loaded) / float64(empty)
			}
			b.ReportMetric(ratio, "virt-ratio")
		})
	}
}

func BenchmarkAblation_PipelineWidth(b *testing.B) {
	for _, width := range []int{1, 4, 16, 48} {
		b.Run(fmt.Sprintf("width-%d", width), func(b *testing.B) {
			var lat float64
			for i := 0; i < b.N; i++ {
				fig := bench.AblatePipelineWidth([]int{width}, 64, 1<<10)
				lat = fig.Series[0].Points[0].Y
			}
			b.ReportMetric(lat, "virt-us")
		})
	}
}

func BenchmarkAblation_CtxCache(b *testing.B) {
	for _, size := range []int{2, 8, 32, 128} {
		b.Run(fmt.Sprintf("cache-%d", size), func(b *testing.B) {
			var lat float64
			for i := 0; i < b.N; i++ {
				fig := bench.AblateCtxCache([]int{size}, 64, 1<<10)
				lat = fig.Series[0].Points[0].Y
			}
			b.ReportMetric(lat, "virt-us")
		})
	}
}

func BenchmarkAblation_MPAMarkers(b *testing.B) {
	b.Run("sweep", func(b *testing.B) {
		var withMarkers, without float64
		for i := 0; i < b.N; i++ {
			fig := bench.AblateMPAMarkers(1 << 20)
			withMarkers = fig.Series[0].Points[3].Y
			without = fig.Series[1].Points[3].Y
		}
		b.ReportMetric(withMarkers, "virt-us-markers")
		b.ReportMetric(without, "virt-us-bare")
	})
}

func BenchmarkAblation_EagerThreshold(b *testing.B) {
	for _, th := range []int{1 << 10, 8 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("thresh-%dKB", th>>10), func(b *testing.B) {
			var lat float64
			for i := 0; i < b.N; i++ {
				fig := bench.AblateEagerThreshold([]int{th}, 16<<10)
				lat = fig.Series[0].Points[0].Y
			}
			b.ReportMetric(lat, "virt-us")
		})
	}
}

func BenchmarkAblation_MXRegCache(b *testing.B) {
	b.Run("1MB", func(b *testing.B) {
		var on, off float64
		for i := 0; i < b.N; i++ {
			fig := bench.AblateMXRegCache(1 << 20)
			on = fig.Series[0].Points[0].Y
			off = fig.Series[1].Points[0].Y
		}
		b.ReportMetric(on, "virt-ratio-on")
		b.ReportMetric(off, "virt-ratio-off")
	})
}

func BenchmarkAblation_NICMatchCost(b *testing.B) {
	for _, ns := range []int{5, 35, 140} {
		b.Run(fmt.Sprintf("cost-%dns", ns), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				fig := bench.AblateNICMatchCost([]int{ns}, 256)
				ratio = fig.Series[0].Points[0].Y
			}
			b.ReportMetric(ratio, "virt-ratio")
		})
	}
}

func BenchmarkAppendix_Overlap(b *testing.B) {
	for _, kind := range cluster.Kinds {
		b.Run(kind.String(), func(b *testing.B) {
			var r float64
			for i := 0; i < b.N; i++ {
				r = bench.OverlapRatio(kind, 256<<10, 4)
			}
			b.ReportMetric(r, "virt-ratio")
		})
	}
}

func BenchmarkAppendix_Progress(b *testing.B) {
	for _, kind := range cluster.Kinds {
		b.Run(kind.String(), func(b *testing.B) {
			var r float64
			for i := 0; i < b.N; i++ {
				r = bench.ProgressRatio(kind, 128<<10, 3)
			}
			b.ReportMetric(r, "virt-ratio")
		})
	}
}

func BenchmarkAppendix_Hotspot(b *testing.B) {
	for _, kind := range cluster.Kinds {
		b.Run(kind.String(), func(b *testing.B) {
			var lat sim.Time
			for i := 0; i < b.N; i++ {
				lat = bench.HotspotLatency(kind, 3, 1<<10, 8)
			}
			b.ReportMetric(lat.Micros(), "virt-us")
		})
	}
}

func BenchmarkExt_Sockets(b *testing.B) {
	for _, stack := range bench.SocketStacks {
		b.Run(stack, func(b *testing.B) {
			var lat sim.Time
			var bw float64
			for i := 0; i < b.N; i++ {
				lat = bench.SocketLatency(stack, 64, 10)
				bw = bench.SocketBandwidth(stack, 1<<20, 4)
			}
			b.ReportMetric(lat.Micros(), "virt-us")
			b.ReportMetric(bw, "virt-MB/s")
		})
	}
}

func BenchmarkExt_UDAPL(b *testing.B) {
	for _, kind := range cluster.VerbsKinds {
		b.Run(kind.String(), func(b *testing.B) {
			var lat sim.Time
			for i := 0; i < b.N; i++ {
				lat = bench.UDAPLatency(kind, 64, 10)
			}
			b.ReportMetric(lat.Micros(), "virt-us")
		})
	}
}

func BenchmarkExt_ScalingAlltoall(b *testing.B) {
	for _, kind := range cluster.Kinds {
		for _, nodes := range []int{4, 16} {
			b.Run(fmt.Sprintf("%s/nodes-%d", kind, nodes), func(b *testing.B) {
				var res bench.ScaleResult
				for i := 0; i < b.N; i++ {
					var err error
					res, err = bench.AlltoallScale(kind, nodes, 1<<10, 3, bench.ScaleOpts{})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(res.Time.Micros(), "virt-us")
			})
		}
	}
}

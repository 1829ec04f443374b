package bench

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

func TestFigureTableAndCSV(t *testing.T) {
	fig := Figure{
		ID: "t", Title: "test", XLabel: "bytes", YLabel: "us",
		Series: []Series{
			{Label: "a", Points: []Point{{1, 1.5}, {1024, 2.5}}},
			{Label: "b", Points: []Point{{1, 3.5}}},
		},
	}
	table := fig.Table()
	for _, want := range []string{"bytes", "a", "b", "1K", "2.50", "3.50"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	csv := fig.CSV()
	if !strings.Contains(csv, "bytes,a,b") || !strings.Contains(csv, "1024,2.5000,") {
		t.Errorf("csv wrong:\n%s", csv)
	}
	if s := fig.Get("a"); s == nil || len(s.Points) != 2 {
		t.Error("Get failed")
	}
	if y, ok := fig.Get("b").At(1); !ok || y != 3.5 {
		t.Error("At failed")
	}
	if _, ok := fig.Get("b").At(99); ok {
		t.Error("At found missing point")
	}
}

func TestSeriesAtToleratesFloatNoise(t *testing.T) {
	// X values computed through float arithmetic (0.1+0.2 != 0.3) must
	// still hit the stored point; exact == lookup fails this test.
	s := Series{Points: []Point{{0.1 + 0.2, 7}, {1e6, 8}}}
	if y, ok := s.At(0.3); !ok || y != 7 {
		t.Errorf("At(0.3) = %v, %v; want 7 over point at %.20f", y, ok, 0.1+0.2)
	}
	// Same magnitude-relative slack at large X: one ulp off a million.
	if y, ok := s.At(1e6 * (1 + 1e-12)); !ok || y != 8 {
		t.Errorf("At(1e6+eps) = %v, %v; want 8", y, ok)
	}
	// The tolerance must stay tight enough to keep neighbouring integer
	// message sizes distinct.
	if _, ok := s.At(0.4); ok {
		t.Error("At(0.4) matched the point at 0.3")
	}
	// Figures merging series with float-noise X values must not grow
	// duplicate columns.
	fig := Figure{Series: []Series{
		{Label: "a", Points: []Point{{0.1 + 0.2, 1}}},
		{Label: "b", Points: []Point{{0.3, 2}}},
	}}
	if got := fig.xs(); len(got) != 1 {
		t.Errorf("xs merged to %v, want one column", got)
	}
}

func TestSizeHelpers(t *testing.T) {
	p2 := Pow2Sizes(1, 8)
	if len(p2) != 4 || p2[3] != 8 {
		t.Errorf("Pow2Sizes = %v", p2)
	}
	p4 := Pow4Sizes(1, 64)
	if len(p4) != 4 || p4[3] != 64 {
		t.Errorf("Pow4Sizes = %v", p4)
	}
}

func TestFmtX(t *testing.T) {
	cases := []struct {
		x    float64
		want string
	}{
		{1, "1"},
		{100, "100"},
		{1024, "1K"},
		{65536, "64K"},
		{1 << 20, "1M"},
	}
	for _, c := range cases {
		if got := fmtX(c.x); got != c.want {
			t.Errorf("fmtX(%v) = %q, want %q", c.x, got, c.want)
		}
	}
}

func TestUserLatencyOrdering(t *testing.T) {
	// Paper Fig. 1: Myrinet < IB < iWARP for small messages.
	iw := UserLatency(cluster.IWARP, 4, 10)
	ib := UserLatency(cluster.IB, 4, 10)
	mxm := UserLatency(cluster.MXoM, 4, 10)
	mxe := UserLatency(cluster.MXoE, 4, 10)
	if !(mxm < mxe && mxe < ib && ib < iw) {
		t.Errorf("latency ordering violated: MXoM=%v MXoE=%v IB=%v iWARP=%v", mxm, mxe, ib, iw)
	}
}

func TestUserLatencyMonotoneInSize(t *testing.T) {
	for _, kind := range cluster.Kinds {
		prev := sim.Time(0)
		for _, size := range []int{4, 1 << 10, 16 << 10, 256 << 10} {
			lat := UserLatency(kind, size, 6)
			if lat <= prev {
				t.Errorf("%v: latency not monotone at %dB (%v <= %v)", kind, size, lat, prev)
			}
			prev = lat
		}
	}
}

func TestMultiConnShapes(t *testing.T) {
	// iWARP keeps improving well past 8 connections; IB bottoms out at its
	// context-cache size and then degrades (Fig. 2).
	iw8 := MultiConnLatency(cluster.IWARP, 8, 1<<10, 5)
	iw64 := MultiConnLatency(cluster.IWARP, 64, 1<<10, 5)
	if iw64 >= iw8 {
		t.Errorf("iWARP normalized latency did not improve 8->64 conns: %v -> %v", iw8, iw64)
	}
	ib8 := MultiConnLatency(cluster.IB, 8, 1<<10, 5)
	ib64 := MultiConnLatency(cluster.IB, 64, 1<<10, 5)
	if ib64 <= ib8 {
		t.Errorf("IB normalized latency did not degrade 8->64 conns: %v -> %v", ib8, ib64)
	}
	// Throughput: IB drops past 8 connections, iWARP sustains.
	ibT8 := MultiConnThroughput(cluster.IB, 8, 1<<10, 8)
	ibT64 := MultiConnThroughput(cluster.IB, 64, 1<<10, 8)
	if ibT64 >= ibT8 {
		t.Errorf("IB throughput did not drop 8->64 conns: %.0f -> %.0f", ibT8, ibT64)
	}
	iwT8 := MultiConnThroughput(cluster.IWARP, 8, 1<<10, 8)
	iwT64 := MultiConnThroughput(cluster.IWARP, 64, 1<<10, 8)
	if iwT64 < iwT8*95/100 {
		t.Errorf("iWARP throughput did not sustain 8->64 conns: %.0f -> %.0f", iwT8, iwT64)
	}
}

func TestBandwidthModeRelations(t *testing.T) {
	for _, kind := range []cluster.Kind{cluster.IB, cluster.MXoM} {
		uni := MPIBandwidth(kind, Unidirectional, 1<<20, 2)
		bidi := MPIBandwidth(kind, Bidirectional, 1<<20, 3)
		both := MPIBandwidth(kind, BothWay, 1<<20, 2)
		if uni < 800 {
			t.Errorf("%v: uni bandwidth %.0f too low", kind, uni)
		}
		if bidi < uni {
			t.Errorf("%v: bidirectional (%.0f) below unidirectional (%.0f)", kind, bidi, uni)
		}
		if both < uni {
			t.Errorf("%v: both-way (%.0f) below unidirectional (%.0f)", kind, both, uni)
		}
	}
}

func TestEagerRendezvousDip(t *testing.T) {
	// Crossing the eager/rendezvous threshold must show in per-byte
	// efficiency: bandwidth just above the IB threshold (8KB) dips relative
	// to the trend (Fig. 4's "steeper slope" for MVAPICH).
	bw8k := MPIBandwidth(cluster.IB, Unidirectional, 8<<10, 8)
	bw16k := MPIBandwidth(cluster.IB, Unidirectional, 16<<10, 8)
	// 16KB pays the rendezvous handshake; per-byte it must not double the
	// 8KB eager rate the way pure wire scaling would suggest.
	if bw16k > bw8k*17/10 {
		t.Errorf("no rendezvous dip: 8K %.0f MB/s -> 16K %.0f MB/s", bw8k, bw16k)
	}
}

func TestBufferReuseShapes(t *testing.T) {
	// Small messages are barely affected.
	if r := BufferReuseRatio(cluster.IB, 64); r > 1.15 {
		t.Errorf("64B re-use ratio = %.2f, want ~1", r)
	}
	// IB suffers the most at rendezvous sizes.
	ib := BufferReuseRatio(cluster.IB, 128<<10)
	iw := BufferReuseRatio(cluster.IWARP, 128<<10)
	mx := BufferReuseRatio(cluster.MXoM, 128<<10)
	if !(ib > iw && iw > mx) {
		t.Errorf("re-use ordering violated: IB=%.2f iWARP=%.2f MX=%.2f", ib, iw, mx)
	}
}

func TestUnexpectedQueueShapes(t *testing.T) {
	// MX is the best (lowest ratio) at queue depth 1024 for 1KB messages.
	ratio := func(kind cluster.Kind) float64 {
		empty := UnexpectedQueueLatency(kind, 1<<10, 0, 8)
		loaded := UnexpectedQueueLatency(kind, 1<<10, 1024, 8)
		return float64(loaded) / float64(empty)
	}
	mx := ratio(cluster.MXoM)
	iw := ratio(cluster.IWARP)
	ib := ratio(cluster.IB)
	if mx >= iw || mx >= ib {
		t.Errorf("MX not best in fig7: MX=%.2f iWARP=%.2f IB=%.2f", mx, iw, ib)
	}
	// Large messages barely affected.
	empty := UnexpectedQueueLatency(cluster.IWARP, 64<<10, 0, 6)
	loaded := UnexpectedQueueLatency(cluster.IWARP, 64<<10, 1024, 6)
	if float64(loaded)/float64(empty) > 1.6 {
		t.Errorf("64KB unexpected-queue ratio = %.2f, want small", float64(loaded)/float64(empty))
	}
}

func TestReceiveQueueShapes(t *testing.T) {
	ratio := func(kind cluster.Kind) float64 {
		empty := ReceiveQueueLatency(kind, 16, 0, 8)
		loaded := ReceiveQueueLatency(kind, 16, 1024, 8)
		return float64(loaded) / float64(empty)
	}
	mx := ratio(cluster.MXoM)
	iw := ratio(cluster.IWARP)
	ib := ratio(cluster.IB)
	// MVAPICH best (~2.5), Myrinet worst (NIC-side matching).
	if !(ib < iw && iw < mx) {
		t.Errorf("fig8 ordering violated: IB=%.2f iWARP=%.2f MX=%.2f", ib, iw, mx)
	}
	if ib < 2.0 || ib > 3.0 {
		t.Errorf("IB fig8 ratio = %.2f, want ~2.5", ib)
	}
}

func TestAblationPipelineWidth(t *testing.T) {
	fig := AblatePipelineWidth([]int{1, 16}, 32, 1<<10)
	narrow, _ := fig.Series[0].At(1)
	wide, _ := fig.Series[0].At(16)
	if wide >= narrow {
		t.Errorf("wider pipeline did not reduce normalized latency: width1=%.2f width16=%.2f", narrow, wide)
	}
}

func TestAblationCtxCache(t *testing.T) {
	fig := AblateCtxCache([]int{8, 64}, 32, 1<<10)
	small, _ := fig.Series[0].At(8)
	big, _ := fig.Series[0].At(64)
	if big >= small {
		t.Errorf("bigger context cache did not help at 32 conns: cache8=%.2f cache64=%.2f", small, big)
	}
}

func TestAblationMPAMarkers(t *testing.T) {
	fig := AblateMPAMarkers(1 << 20)
	with, _ := fig.Get("markers+CRC").At(1 << 20)
	bare, _ := fig.Get("bare DDP").At(1 << 20)
	if bare >= with {
		t.Errorf("removing MPA framing did not reduce latency: %v vs %v", bare, with)
	}
}

func TestAblationNICMatchCost(t *testing.T) {
	fig := AblateNICMatchCost([]int{5, 140}, 256)
	cheap, _ := fig.Series[0].At(5)
	dear, _ := fig.Series[0].At(140)
	if dear <= cheap {
		t.Errorf("higher match cost did not raise the ratio: %v vs %v", cheap, dear)
	}
}

// TestAblationDefaultsMatchFigures pins every ablation to the figure it
// ablates: at its calibrated default the swept knob changes nothing, so the
// ablation must measure exactly what the un-ablated driver measures.
func TestAblationDefaultsMatchFigures(t *testing.T) {
	at := func(fig Figure, label string, x float64) float64 {
		s := fig.Get(label)
		if s == nil {
			t.Fatalf("%s has no series %q", fig.ID, label)
		}
		y, ok := s.At(x)
		if !ok {
			t.Fatalf("%s/%s has no point at %v", fig.ID, label, x)
		}
		return y
	}
	const conns, size, depth = 8, 1 << 10, 256
	recvRatio := float64(ReceiveQueueLatency(cluster.MXoM, 16, depth, 8)) /
		float64(ReceiveQueueLatency(cluster.MXoM, 16, 0, 8))
	markers := AblateMPAMarkers(64 << 10)
	type row struct {
		name      string
		got, want float64
	}
	rows := []row{
		{"iWARP pipeline width 16",
			at(AblatePipelineWidth([]int{16}, conns, size), "8 conns, 1024B", 16),
			MultiConnLatency(cluster.IWARP, conns, size, 6).Micros()},
		{"IB context cache 8",
			at(AblateCtxCache([]int{8}, conns, size), "8 conns, 1024B", 8),
			MultiConnLatency(cluster.IB, conns, size, 6).Micros()},
		{"MX match cost 35ns",
			at(AblateNICMatchCost([]int{35}, depth), "16B, depth 256", 35),
			recvRatio},
		{"IB eager threshold 8KB",
			at(AblateEagerThreshold([]int{8 << 10}, 16<<10), "16384B", 8<<10),
			MPILatency(cluster.IB, 16<<10, 12).Micros()},
	}
	for _, n := range []int{64, 8 << 10, 64 << 10} {
		rows = append(rows, row{"markers+CRC " + fmtX(float64(n)) + "B",
			at(markers, "markers+CRC", float64(n)), UserLatency(cluster.IWARP, n, 8).Micros()})
	}
	for _, r := range rows {
		if r.got != r.want {
			t.Errorf("%s: ablation measured %v, figure driver %v", r.name, r.got, r.want)
		}
	}
}

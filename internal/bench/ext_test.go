package bench

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

func TestSocketStacksOrdering(t *testing.T) {
	host := SocketLatency("TCP/host", 64, 10)
	toe := SocketLatency("TCP/TOE", 64, 10)
	sdpIB := SocketLatency("SDP/IB", 64, 10)
	if !(toe < host && sdpIB < toe) {
		t.Errorf("sockets latency ordering violated: host=%v toe=%v sdp/ib=%v", host, toe, sdpIB)
	}
	hostBW := SocketBandwidth("TCP/host", 1<<20, 6)
	sdpBW := SocketBandwidth("SDP/iWARP", 1<<20, 6)
	if sdpBW < 3*hostBW {
		t.Errorf("SDP zcopy (%.0f) should dwarf kernel TCP (%.0f) at 1MB", sdpBW, hostBW)
	}
}

func TestUDAPLTracksVerbs(t *testing.T) {
	for _, kind := range cluster.VerbsKinds {
		dat := UDAPLatency(kind, 64, 10)
		raw := UserLatency(kind, 64, 10)
		diff := dat - raw
		if diff < -sim.Microsecond || diff > sim.Microsecond {
			t.Errorf("%v: uDAPL (%v) drifted from verbs (%v)", kind, dat, raw)
		}
	}
}

func TestOverlapContrast(t *testing.T) {
	// The appendix headline: MX overlaps rendezvous transfers, the
	// call-driven stacks do not.
	mx := OverlapRatio(cluster.MXoM, 256<<10, 4)
	ib := OverlapRatio(cluster.IB, 256<<10, 4)
	iw := OverlapRatio(cluster.IWARP, 256<<10, 4)
	if mx < 0.7 {
		t.Errorf("MX overlap = %.2f, want > 0.7 (NIC-driven rendezvous)", mx)
	}
	if ib > 0.5 || iw > 0.5 {
		t.Errorf("call-driven overlap too high: IB=%.2f iWARP=%.2f", ib, iw)
	}
}

func TestProgressContrast(t *testing.T) {
	if pg := ProgressRatio(cluster.MXoM, 128<<10, 3); pg < 0.9 {
		t.Errorf("MX progress = %.2f, want ~1", pg)
	}
	if pg := ProgressRatio(cluster.IB, 128<<10, 3); pg > 0.3 {
		t.Errorf("IB progress = %.2f, want ~0 (no independent progress)", pg)
	}
}

func TestHotspotDegradesWithSenders(t *testing.T) {
	one := HotspotLatency(cluster.IB, 1, 1024, 8)
	three := HotspotLatency(cluster.IB, 3, 1024, 8)
	if three <= one {
		t.Errorf("hotspot latency did not degrade: 1 sender %v, 3 senders %v", one, three)
	}
}

// alltoallT runs AlltoallTime, failing the test on a clean-run error.
func alltoallT(t *testing.T, kind cluster.Kind, nodes, n, iters int) sim.Time {
	t.Helper()
	at, err := AlltoallTime(kind, nodes, n, iters)
	if err != nil {
		t.Fatalf("clean %s alltoall run failed: %v", kind, err)
	}
	return at
}

// allgatherT runs AllgatherTime, failing the test on a clean-run error.
func allgatherT(t *testing.T, kind cluster.Kind, nodes, n, iters int) sim.Time {
	t.Helper()
	at, err := AllgatherTime(kind, nodes, n, iters)
	if err != nil {
		t.Fatalf("clean %s allgather run failed: %v", kind, err)
	}
	return at
}

func TestScalingCrossover(t *testing.T) {
	// The paper's Section 7 conjecture, realized: IB's alltoall falls
	// behind iWARP once per-node connection counts overflow the QP context
	// cache, despite IB winning at small node counts. With arrival-order
	// egress the two curves meet near 20 nodes (16: IB 99.5 us, iWARP
	// 101.1 us), so the large side is probed at 32 nodes, where 31
	// connections per node overflow the 8-entry cache almost fourfold.
	ib4 := alltoallT(t, cluster.IB, 4, 1<<10, 3)
	iw4 := alltoallT(t, cluster.IWARP, 4, 1<<10, 3)
	if ib4 >= iw4 {
		t.Errorf("at 4 nodes IB (%v) should beat iWARP (%v)", ib4, iw4)
	}
	ib32 := alltoallT(t, cluster.IB, 32, 1<<10, 3)
	iw32 := alltoallT(t, cluster.IWARP, 32, 1<<10, 3)
	if ib32 <= iw32 {
		t.Errorf("at 32 nodes iWARP (%v) should beat IB (%v)", iw32, ib32)
	}
}

func TestAllgatherScalesRoughlyLinearly(t *testing.T) {
	// Ring allgather moves (nodes-1) blocks: time should grow with node
	// count but stay within a small factor of proportional.
	t4 := allgatherT(t, cluster.MXoM, 4, 4<<10, 3)
	t8 := allgatherT(t, cluster.MXoM, 8, 4<<10, 3)
	if t8 <= t4 {
		t.Errorf("allgather time did not grow: %v -> %v", t4, t8)
	}
	if t8 > 5*t4 {
		t.Errorf("allgather superlinear blow-up: %v -> %v", t4, t8)
	}
}

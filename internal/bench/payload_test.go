package bench

import (
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mem"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// Payload bytes never change virtual time, which is why the figure drivers
// leave their buffers unfilled. These tests hold that claim to account.

// payloadSizes are one eager (bcopy) and one rendezvous (zero-copy, or
// several socket-buffer chunks) size on every stack.
var payloadSizes = []int{1 << 10, 256 << 10}

const payloadIters = 3

// pingPongBuffers is a ping-pong's four buffers: each side sends from its
// own source and receives into its own destination.
type pingPongBuffers struct{ srcA, dstA, srcB, dstB *mem.Buffer }

func newPingPongBuffers(am, bm *mem.Memory, size int, fill bool) pingPongBuffers {
	b := pingPongBuffers{srcA: am.Alloc(size), dstA: am.Alloc(size), srcB: bm.Alloc(size), dstB: bm.Alloc(size)}
	if fill {
		b.srcA.Fill(1)
		b.srcB.Fill(2)
	}
	return b
}

// intact reports whether each side received the other's fill pattern.
func (b pingPongBuffers) intact(size int) bool {
	return b.dstB.Equal(1, 0, size) && b.dstA.Equal(2, 0, size)
}

// mpiPingPong runs an MPI ping-pong on a fresh two-rank world and returns
// the virtual time it ended at and whether the filled payload arrived
// intact.
func mpiPingPong(t *testing.T, kind cluster.Kind, size int, fill bool) (sim.Time, bool) {
	tb, w := mpi.DefaultWorld(kind, 2)
	defer tb.Close()
	b := newPingPongBuffers(w.Rank(0).Host().Mem, w.Rank(1).Host().Mem, size, fill)
	tb.Eng.Go("rank0", func(pr *sim.Proc) {
		p := w.Rank(0)
		for i := 0; i < payloadIters; i++ {
			p.Send(pr, 1, 1, b.srcA, 0, size)
			p.Recv(pr, 1, 2, b.dstA, 0, size)
		}
	})
	tb.Eng.Go("rank1", func(pr *sim.Proc) {
		p := w.Rank(1)
		for i := 0; i < payloadIters; i++ {
			p.Recv(pr, 0, 1, b.dstB, 0, size)
			p.Send(pr, 0, 2, b.srcB, 0, size)
		}
	})
	if err := tb.Run(); err != nil {
		t.Fatal(err)
	}
	return tb.Eng.Now(), b.intact(size)
}

// socketPingPong is mpiPingPong over one of the sockets stacks.
func socketPingPong(t *testing.T, label string, size int, fill bool) (sim.Time, bool) {
	tb, a, bEnd := socketPair(label)
	defer tb.Close()
	b := newPingPongBuffers(tb.Hosts[0].Mem, tb.Hosts[1].Mem, size, fill)
	tb.Go(0, "side-a", func(p *sim.Proc) {
		for i := 0; i < payloadIters; i++ {
			a.Send(p, b.srcA, 0, size)
			a.Recv(p, b.dstA, 0, size)
		}
	})
	tb.Go(1, "side-b", func(p *sim.Proc) {
		for i := 0; i < payloadIters; i++ {
			bEnd.Recv(p, b.dstB, 0, size)
			bEnd.Send(p, b.srcB, 0, size)
		}
	})
	if err := tb.Run(); err != nil {
		t.Fatal(err)
	}
	return tb.Eng.Now(), b.intact(size)
}

// TestTimingIndependentOfPayload runs every stack's ping-pong once with
// filled buffers and once with unfilled ones: both must end at the same
// virtual time, and the filled run must deliver its bytes intact.
func TestTimingIndependentOfPayload(t *testing.T) {
	type stack struct {
		name string
		run  func(t *testing.T, size int, fill bool) (sim.Time, bool)
	}
	var stacks []stack
	for _, kind := range cluster.Kinds {
		stacks = append(stacks, stack{"MPI/" + kind.String(), func(t *testing.T, size int, fill bool) (sim.Time, bool) {
			return mpiPingPong(t, kind, size, fill)
		}})
	}
	for _, label := range SocketStacks {
		stacks = append(stacks, stack{label, func(t *testing.T, size int, fill bool) (sim.Time, bool) {
			return socketPingPong(t, label, size, fill)
		}})
	}
	for _, st := range stacks {
		for _, size := range payloadSizes {
			filled, ok := st.run(t, size, true)
			unfilled, _ := st.run(t, size, false)
			if filled != unfilled {
				t.Errorf("%s %dB: filled run ended at %v, unfilled at %v", st.name, size, filled, unfilled)
			}
			if !ok {
				t.Errorf("%s %dB: filled payload arrived corrupt", st.name, size)
			}
		}
	}
}

// TestBufferReuseAllocationBudget pins the host bytes of one Figure 6
// point. While Figure 6's buffers were filled, the 64 buffers of 256 KiB on
// each of the two ranks alone cost 2 x 64 x 256 KiB = 32 MiB, and the point
// allocated 36.4 MB in all (runtime.ReadMemStats, go1.24 on linux/amd64);
// unfilled, its two worlds materialise only protocol headers, 2.3 MB.
func TestBufferReuseAllocationBudget(t *testing.T) {
	const filledBytes = 2 * fig6Buffers * 256 << 10
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	BufferReuseRatio(cluster.IB, 256<<10)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= filledBytes/8 {
		t.Errorf("one buffer re-use point allocated %d bytes, budget is an eighth of %d", got, filledBytes)
	}
}

package verbs_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/verbs"
)

// The queue-pair front end is shared by both providers, so every case runs
// on a two-node iWARP testbed and on a two-node IB testbed.
var providers = []cluster.Kind{cluster.IWARP, cluster.IB}

// pair is a connected QP between host 0 (sender) and host 1 (receiver).
type pair struct {
	tb         *cluster.Testbed
	qp0, qp1   verbs.QP
	nic0, nic1 verbs.NIC
}

func newPair(t *testing.T, kind cluster.Kind) *pair {
	t.Helper()
	tb := cluster.New(kind, 2)
	qp0, qp1 := tb.ConnectQP(0, 1)
	return &pair{tb: tb, qp0: qp0, qp1: qp1, nic0: tb.Hosts[0].NIC(), nic1: tb.Hosts[1].NIC()}
}

// buffer allocates n bytes on host i, fills them from seed when seed is
// non-zero, and registers them.
func (pr *pair) buffer(i, n int, seed byte) (*mem.Buffer, *mem.Region) {
	h := pr.tb.Hosts[i]
	buf := h.Mem.Alloc(n)
	if seed != 0 {
		buf.Fill(seed)
	}
	return buf, h.NIC().Reg().RegisterFree(buf, 0, n)
}

func (pr *pair) send(p *sim.Proc, id uint64, src *mem.Region) {
	pr.qp0.PostSend(p, verbs.WR{ID: id, Op: verbs.OpSend, Local: src, Len: src.Len})
}

func (pr *pair) recv(p *sim.Proc, id uint64, dst *mem.Region) {
	pr.qp1.PostRecv(p, verbs.WR{ID: id, Op: verbs.OpRecv, Local: dst})
}

// failure runs the testbed and returns how it stopped: the message of a
// panic raised in an engine event, the error a panicking process leaves,
// or "" for a clean run.
func (pr *pair) failure() (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	if err := pr.tb.Run(); err != nil {
		return err.Error()
	}
	return ""
}

// TestFrontEarlySendsCompleteInOrder posts three Sends of different sizes
// (one and several wire segments) before the receiver posts anything. Each
// waits as an early arrival; the three receives posted later complete in
// order with the right lengths and bytes.
func TestFrontEarlySendsCompleteInOrder(t *testing.T) {
	sizes := []int{100, 5000, 20_000}
	for _, kind := range providers {
		t.Run(kind.String(), func(t *testing.T) {
			pr := newPair(t, kind)
			defer pr.tb.Close()
			var dst []*mem.Buffer
			sent := sim.NewCompletion(pr.tb.Eng)
			pr.tb.Eng.Go("sender", func(p *sim.Proc) {
				for i, n := range sizes {
					_, src := pr.buffer(0, n, byte(11*(i+1)))
					pr.send(p, uint64(i), src)
				}
				for i := range sizes {
					if c := pr.qp0.SendCQ().Poll(p); c.WRID != uint64(i) || c.Op != verbs.OpSend {
						t.Errorf("send completion %d = %+v", i, c)
					}
				}
				sent.Fire()
			})
			pr.tb.Eng.Go("receiver", func(p *sim.Proc) {
				sent.Wait(p)
				if n := pr.qp1.RecvCQ().Len(); n != 0 {
					t.Errorf("%d receive completions before any receive was posted", n)
				}
				for i := range sizes {
					buf, r := pr.buffer(1, 32<<10, 0)
					dst = append(dst, buf)
					pr.recv(p, uint64(100+i), r)
				}
				for i, n := range sizes {
					c := pr.qp1.RecvCQ().Poll(p)
					if c.WRID != uint64(100+i) || c.Op != verbs.OpRecv || c.Len != n {
						t.Errorf("receive completion %d = %+v, want WRID %d, %d bytes", i, c, 100+i, n)
					}
				}
			})
			if err := pr.tb.Run(); err != nil {
				t.Fatal(err)
			}
			if len(dst) != len(sizes) {
				t.Fatalf("receiver posted %d buffers, want %d", len(dst), len(sizes))
			}
			for i, n := range sizes {
				if !dst[i].Equal(byte(11*(i+1)), 0, n) {
					t.Errorf("receive %d holds the wrong bytes", i)
				}
			}
		})
	}
}

// TestFrontPostedThenEarly posts one receive ahead of two Sends: the first
// Send is placed straight into it, the second finds no receive and waits
// until the receiver posts one.
func TestFrontPostedThenEarly(t *testing.T) {
	const n = 6000
	for _, kind := range providers {
		t.Run(kind.String(), func(t *testing.T) {
			pr := newPair(t, kind)
			defer pr.tb.Close()
			dst0, r0 := pr.buffer(1, n, 0)
			dst1, r1 := pr.buffer(1, n, 0)
			var posted sim.Time
			pr.tb.Eng.Go("receiver", func(p *sim.Proc) {
				pr.recv(p, 1, r0)
				c := pr.qp1.RecvCQ().Poll(p)
				if c.WRID != 1 || c.Len != n {
					t.Errorf("first receive completion = %+v", c)
				}
				// Both Sends are acknowledged well within a millisecond; the
				// second must still be waiting for a receive.
				p.Sleep(sim.Millisecond)
				if k := pr.qp1.RecvCQ().Len(); k != 0 {
					t.Errorf("%d receive completions with no receive posted", k)
				}
				posted = p.Now()
				pr.recv(p, 2, r1)
				c = pr.qp1.RecvCQ().Poll(p)
				if c.WRID != 2 || c.Len != n || c.At <= posted {
					t.Errorf("early receive completion = %+v, posted at %v", c, posted)
				}
			})
			pr.tb.Eng.Go("sender", func(p *sim.Proc) {
				p.Sleep(10 * sim.Microsecond)
				_, a := pr.buffer(0, n, 3)
				_, b := pr.buffer(0, n, 5)
				pr.send(p, 1, a)
				pr.send(p, 2, b)
				pr.qp0.SendCQ().Poll(p)
				pr.qp0.SendCQ().Poll(p)
			})
			if err := pr.tb.Run(); err != nil {
				t.Fatal(err)
			}
			if !dst0.Equal(3, 0, n) || !dst1.Equal(5, 0, n) {
				t.Error("receives hold the wrong bytes")
			}
		})
	}
}

// TestFrontOverrunsPanic checks that a Send larger than the receive it
// lands in stops the run with a message naming the receiving device,
// whether the receive was posted before the Send arrived or after.
func TestFrontOverrunsPanic(t *testing.T) {
	for _, kind := range providers {
		for _, early := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/early=%v", kind, early), func(t *testing.T) {
				pr := newPair(t, kind)
				defer pr.tb.Close()
				_, small := pr.buffer(1, 1000, 0)
				pr.tb.Eng.Go("receiver", func(p *sim.Proc) {
					if early {
						p.Sleep(sim.Millisecond)
					}
					pr.recv(p, 1, small)
				})
				pr.tb.Eng.Go("sender", func(p *sim.Proc) {
					p.Sleep(10 * sim.Microsecond)
					_, big := pr.buffer(0, 4000, 9)
					pr.send(p, 1, big)
				})
				want := pr.nic1.Name() + ": send overruns"
				if early {
					want = pr.nic1.Name() + ": early send overruns"
				}
				if msg := pr.failure(); !strings.Contains(msg, want) {
					t.Errorf("run ended with %q, want %q", msg, want)
				}
			})
		}
	}
}

// TestFrontZeroLengthPostSendPanics checks that a zero-length work request
// is refused at posting time, naming the device.
func TestFrontZeroLengthPostSendPanics(t *testing.T) {
	for _, kind := range providers {
		t.Run(kind.String(), func(t *testing.T) {
			pr := newPair(t, kind)
			defer pr.tb.Close()
			_, src := pr.buffer(0, 64, 1)
			pr.tb.Eng.Go("sender", func(p *sim.Proc) {
				pr.qp0.PostSend(p, verbs.WR{ID: 1, Op: verbs.OpSend, Local: src})
			})
			want := pr.nic0.Name() + ": zero-length work request"
			if msg := pr.failure(); !strings.Contains(msg, want) {
				t.Errorf("run ended with %q, want %q", msg, want)
			}
		})
	}
}

// traffic has host 0 send one message per size to receives host 1 posted
// first, then RDMA Write 4 KiB into a region of host 1. It never touches a
// QP's CQ or placement accessors.
func (pr *pair) traffic(t *testing.T, sizes []int) {
	t.Helper()
	_, sink := pr.buffer(1, 8<<10, 0)
	pr.tb.Eng.Go("receiver", func(p *sim.Proc) {
		for i := range sizes {
			_, r := pr.buffer(1, 32<<10, 0)
			pr.recv(p, uint64(100+i), r)
		}
	})
	pr.tb.Eng.Go("sender", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		for i, n := range sizes {
			_, src := pr.buffer(0, n, byte(i+1))
			pr.send(p, uint64(i), src)
		}
		_, src := pr.buffer(0, 4<<10, 9)
		pr.qp0.PostSend(p, verbs.WR{ID: 50, Op: verbs.OpWrite, Local: src, Len: 4 << 10, RemoteKey: sink.Key})
	})
	if err := pr.tb.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestFrontWiredQPBuildsNoQueues wires both ends of a pair the way MPI and
// SDP do (completions redirected to the process's own CQ, placement log
// off) and checks that Send/Recv and RDMA Write traffic leaves the QPs
// without a CQ or placement queue of their own.
func TestFrontWiredQPBuildsNoQueues(t *testing.T) {
	for _, kind := range providers {
		t.Run(kind.String(), func(t *testing.T) {
			pr := newPair(t, kind)
			defer pr.tb.Close()
			cqs := []*verbs.CQ{verbs.NewCQ(pr.tb.Eng, "cq0", 0), verbs.NewCQ(pr.tb.Eng, "cq1", 0)}
			for i, qp := range []verbs.QP{pr.qp0, pr.qp1} {
				qp.SetCQs(cqs[i], cqs[i])
				qp.SetPlacementLog(false)
			}
			sizes := []int{100, 5000}
			pr.traffic(t, sizes)
			if n0, n1 := cqs[0].Len(), cqs[1].Len(); n0 != len(sizes)+1 || n1 != len(sizes) {
				t.Errorf("shared CQs hold %d and %d completions, want %d and %d", n0, n1, len(sizes)+1, len(sizes))
			}
			for i, qp := range []verbs.QP{pr.qp0, pr.qp1} {
				scq, rcq, places := verbs.OwnQueues(qp)
				if scq != cqs[i] || rcq != cqs[i] || places != nil {
					t.Errorf("QP %d holds queues of its own: send CQ %v, recv CQ %v, placements %v", i, scq != cqs[i], rcq != cqs[i], places != nil)
				}
			}
		})
	}
}

// TestFrontRawQPBuildsQueuesOnFirstUse checks that a raw QP builds its CQs
// and placement queue when its first completion or placement needs them,
// and that those lazily built queues hold every completion in order.
func TestFrontRawQPBuildsQueuesOnFirstUse(t *testing.T) {
	for _, kind := range providers {
		t.Run(kind.String(), func(t *testing.T) {
			pr := newPair(t, kind)
			defer pr.tb.Close()
			for i, qp := range []verbs.QP{pr.qp0, pr.qp1} {
				if scq, rcq, places := verbs.OwnQueues(qp); scq != nil || rcq != nil || places != nil {
					t.Fatalf("QP %d built queues before any traffic", i)
				}
			}
			sizes := []int{100, 5000, 20_000}
			pr.traffic(t, sizes)
			if scq, _, _ := verbs.OwnQueues(pr.qp0); scq == nil || scq != pr.qp0.SendCQ() {
				t.Fatal("sender's send completions built no CQ")
			}
			if _, rcq, places := verbs.OwnQueues(pr.qp1); rcq == nil || places == nil {
				t.Fatal("receiver's completions and placements built no queues")
			}
			for i, want := range []uint64{0, 1, 2, 50} {
				if c, ok := pr.qp0.SendCQ().TryPoll(); !ok || c.WRID != want {
					t.Errorf("send completion %d = %+v, %v; want WRID %d", i, c, ok, want)
				}
			}
			for i, n := range sizes {
				if c, ok := pr.qp1.RecvCQ().TryPoll(); !ok || c.WRID != uint64(100+i) || c.Len != n {
					t.Errorf("receive completion %d = %+v, %v; want WRID %d, %d bytes", i, c, ok, 100+i, n)
				}
			}
			got := 0
			for pr.qp1.Placements().Len() > 0 {
				pl, _ := pr.qp1.Placements().TryGet()
				got += pl.Len
			}
			if got != 4<<10 {
				t.Errorf("placements log %d bytes, want %d", got, 4<<10)
			}
		})
	}
}

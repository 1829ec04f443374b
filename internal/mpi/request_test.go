package mpi

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// usedAfterWait reports an error unless fn panics as a use of a dead
// request handle. It calls t.Errorf, not t.Fatal, so it is safe to use
// from a simulated process.
func usedAfterWait(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "used after Wait") {
			t.Errorf("%s: panic %q, want a use after Wait", what, msg)
		}
	}()
	fn()
}

// TestRequestUseAfterWaitPanics checks that a handle is dead once Wait
// returns: a second Wait and Done panic, also after the request behind the
// handle has been handed out again by a later call.
func TestRequestUseAfterWaitPanics(t *testing.T) {
	for _, kind := range cluster.Kinds {
		t.Run(kind.String(), func(t *testing.T) {
			run2(t, kind, func(pr *sim.Proc, p *Process, peer int) {
				buf := p.Host().Mem.Alloc(64)
				if p.Rank() == 1 {
					p.Recv(pr, peer, 1, buf, 0, 64)
					p.Recv(pr, peer, 2, buf, 0, 64)
					return
				}
				first := p.Isend(pr, peer, 1, buf, 0, 64)
				first.Wait(pr)
				usedAfterWait(t, "second Wait", func() { first.Wait(pr) })
				usedAfterWait(t, "Done after Wait", func() { first.Done() })
				second := p.Isend(pr, peer, 2, buf, 0, 64)
				if second.r != first.r {
					t.Error("the second send did not reuse the waited request")
				}
				usedAfterWait(t, "Done on a stale handle of a reused request", func() { first.Done() })
				second.Wait(pr)
				usedAfterWait(t, "Done on the zero Request", func() { Request{}.Done() })
			})
		})
	}
}

// requestsMade runs iters rounds of a two-rank eager ping-pong on kind and
// returns how many distinct request objects the handles named. Each round
// rank 0 sends and then receives, and rank 1 the reverse, through
// Isend/Irecv and Wait; every waited request must be back on its process's
// free list at the end.
func requestsMade(t *testing.T, kind cluster.Kind, iters int) int {
	t.Helper()
	seen := map[*request]bool{}
	w := run2(t, kind, func(pr *sim.Proc, p *Process, peer int) {
		buf := p.Host().Mem.Alloc(64)
		send := func() {
			h := p.Isend(pr, peer, 1, buf, 0, 64)
			seen[h.r] = true
			h.Wait(pr)
		}
		recv := func() {
			h := p.Irecv(pr, peer, 1, buf, 0, 64)
			seen[h.r] = true
			h.Wait(pr)
		}
		for i := 0; i < iters; i++ {
			if p.Rank() == 0 {
				send()
				recv()
			} else {
				recv()
				send()
			}
		}
	})
	free := 0
	for r := 0; r < w.Size(); r++ {
		for _, req := range w.Rank(r).free {
			if !seen[req] {
				t.Errorf("%v: rank %d's free list holds a request no handle named", kind, r)
			}
			free++
		}
	}
	if free != len(seen) {
		t.Errorf("%v: %d requests made, %d back on the free lists", kind, len(seen), free)
	}
	return len(seen)
}

// TestRequestsAreRecycled checks that a steady-state ping-pong reuses its
// requests: 100 rounds make no more request objects than 10 do, on every
// stack. A request holds its completion (and, on MX, its MX handles) by
// value, so the count bounds the request and completion bytes too.
func TestRequestsAreRecycled(t *testing.T) {
	for _, kind := range cluster.Kinds {
		t.Run(kind.String(), func(t *testing.T) {
			few, many := requestsMade(t, kind, 10), requestsMade(t, kind, 100)
			if many > few {
				t.Errorf("100 rounds made %d requests, 10 rounds %d", many, few)
			}
			if few > 2 {
				t.Errorf("10 rounds made %d requests; one per rank suffices", few)
			}
		})
	}
}

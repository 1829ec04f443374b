// Mpiapp runs a small MPI application on the full four-node testbed of the
// paper: a 1-D halo exchange (the communication kernel of stencil codes)
// iterated over a distributed vector, on each of the four network stacks.
// It verifies numerical correctness end to end — the simulator moves real
// bytes — and reports the communication time per iteration.
package main

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/mem"
	"repro/internal/mpi"
	"repro/internal/sim"
)

const (
	nodes  = 4
	local  = 512 // local cells per rank
	rounds = 16
	cell   = 8 // bytes per float64 cell
)

func main() {
	fmt.Printf("4-node 1-D halo exchange, %d cells/rank, %d rounds:\n", local, rounds)
	for _, kind := range cluster.Kinds {
		elapsed, checksum := run(kind)
		fmt.Printf("  %-5s  %8.1f us total, %6.2f us/round, checksum %.6f\n",
			kind, elapsed.Micros(), elapsed.Micros()/rounds, checksum)
	}
	fmt.Println("(identical checksums across networks: the stacks move the same bytes)")
}

func run(kind cluster.Kind) (sim.Time, float64) {
	tb, world := mpi.DefaultWorld(kind, nodes)
	defer tb.Close()

	var elapsed sim.Time
	var checksum float64
	for r := 0; r < nodes; r++ {
		r := r
		tb.Eng.Go(fmt.Sprintf("rank%d", r), func(pr *sim.Proc) {
			p := world.Rank(r)
			// Local state: cells + one halo cell on each side.
			cells := make([]float64, local+2)
			for i := 1; i <= local; i++ {
				cells[i] = float64(r*local + i)
			}
			left := (r + nodes - 1) % nodes
			right := (r + 1) % nodes
			sendBuf := p.Host().Mem.Alloc(cell)
			recvBuf := p.Host().Mem.Alloc(cell)

			p.Barrier(pr)
			start := p.Wtime(pr)
			for it := 0; it < rounds; it++ {
				// Send the rightmost cell right, receive the left halo, then
				// the mirror exchange; even/odd phasing avoids deadlock.
				exchange := func(dst, src int, val float64) float64 {
					putFloat(sendBuf, val)
					if r%2 == 0 {
						p.Send(pr, dst, it, sendBuf, 0, cell)
						p.Recv(pr, src, it, recvBuf, 0, cell)
					} else {
						p.Recv(pr, src, it, recvBuf, 0, cell)
						p.Send(pr, dst, it, sendBuf, 0, cell)
					}
					return getFloat(recvBuf)
				}
				cells[0] = exchange(right, left, cells[local])
				cells[local+1] = exchange(left, right, cells[1])
				// Jacobi-style relaxation step.
				next := make([]float64, len(cells))
				copy(next, cells)
				for i := 1; i <= local; i++ {
					next[i] = (cells[i-1] + cells[i] + cells[i+1]) / 3
				}
				cells = next
			}
			total := p.Wtime(pr) - start
			if r == 0 {
				elapsed = total
			}
			sum := 0.0
			for i := 1; i <= local; i++ {
				sum += cells[i]
			}
			// Rank checksums are combined at rank 0.
			if r == 0 {
				checksum = sum
				for q := 1; q < nodes; q++ {
					p.Recv(pr, q, 9999, recvBuf, 0, cell)
					checksum += getFloat(recvBuf)
				}
				checksum = math.Sqrt(checksum)
			} else {
				putFloat(sendBuf, sum)
				p.Send(pr, 0, 9999, sendBuf, 0, cell)
			}
		})
	}
	if err := tb.Run(); err != nil {
		panic(err)
	}
	return elapsed, checksum
}

func putFloat(b *mem.Buffer, v float64) {
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], math.Float64bits(v))
	b.Store(0, w[:])
}

func getFloat(b *mem.Buffer) float64 {
	var w [8]byte
	b.Load(w[:], 0)
	return math.Float64frombits(binary.LittleEndian.Uint64(w[:]))
}

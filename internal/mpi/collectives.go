package mpi

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/mem"
	"repro/internal/sim"
)

// Collective operations, point-to-point based as in MPICH of the paper's
// era. The paper's authors study RDMA-based collectives elsewhere (their
// QsNet II multi-port collectives paper, cited as [22]); here collectives
// serve the "applications" extension of Section 7's future work and the
// examples/collectives program.

// Reserved collective tag space (above user tags, below barrierTag).
const (
	bcastTag = maxUserTag + 2 + iota
	reduceTag
	gatherTag
	alltoallTag
)

// Bcast broadcasts [off, off+n) of root's buffer to every rank, using a
// binomial tree.
func (p *Process) Bcast(pr *sim.Proc, root int, buf *mem.Buffer, off, n int) {
	w := p.world
	size := w.Size()
	p.checkRank(root)
	// Rotate so the root is virtual rank 0.
	vrank := (p.rank - root + size) % size
	// Receive from the parent (the highest set bit below us).
	if vrank != 0 {
		mask := 1
		for mask <= vrank {
			mask <<= 1
		}
		mask >>= 1
		parent := ((vrank - mask) + root) % size
		p.Recv(pr, parent, bcastTag, buf, off, n)
	}
	// Forward to children.
	mask := 1
	for mask <= vrank {
		mask <<= 1
	}
	for ; mask < size; mask <<= 1 {
		child := vrank + mask
		if child >= size {
			break
		}
		p.Send(pr, (child+root)%size, bcastTag, buf, off, n)
	}
}

// ReduceOp combines src into dst element-wise.
type ReduceOp func(dst, src []byte)

// SumFloat64 adds vectors of little-endian float64s.
func SumFloat64(dst, src []byte) {
	if len(dst) != len(src) || len(dst)%8 != 0 {
		panic(fmt.Sprintf("mpi: SumFloat64 on %d/%d bytes", len(dst), len(src)))
	}
	for i := 0; i < len(dst); i += 8 {
		a := math.Float64frombits(binary.LittleEndian.Uint64(dst[i:]))
		b := math.Float64frombits(binary.LittleEndian.Uint64(src[i:]))
		binary.LittleEndian.PutUint64(dst[i:], math.Float64bits(a+b))
	}
}

// MaxFloat64 takes the element-wise maximum of float64 vectors.
func MaxFloat64(dst, src []byte) {
	if len(dst) != len(src) || len(dst)%8 != 0 {
		panic(fmt.Sprintf("mpi: MaxFloat64 on %d/%d bytes", len(dst), len(src)))
	}
	for i := 0; i < len(dst); i += 8 {
		a := math.Float64frombits(binary.LittleEndian.Uint64(dst[i:]))
		b := math.Float64frombits(binary.LittleEndian.Uint64(src[i:]))
		binary.LittleEndian.PutUint64(dst[i:], math.Float64bits(math.Max(a, b)))
	}
}

// Reduce combines every rank's [off, off+n) into root's buffer with op,
// along a binomial tree. The reduction consumes op CPU time per byte via
// the host memcpy model (combining is a memory-bound pass).
func (p *Process) Reduce(pr *sim.Proc, root int, op ReduceOp, buf *mem.Buffer, off, n int) {
	w := p.world
	size := w.Size()
	p.checkRank(root)
	vrank := (p.rank - root + size) % size
	tmp := p.host.Mem.Alloc(max(n, 1))
	for mask := 1; mask < size; mask <<= 1 {
		if vrank&mask != 0 {
			// Send the partial result up the tree and drop out.
			parent := ((vrank &^ mask) + root) % size
			p.Send(pr, parent, reduceTag, buf, off, n)
			return
		}
		child := vrank | mask
		if child >= size {
			continue
		}
		p.Recv(pr, (child+root)%size, reduceTag, tmp, 0, n)
		// Charge the combine as a warm memory pass.
		pr.Sleep(p.host.Mem.CopyRate.TxTime(n))
		buf.Combine(off, tmp, 0, n, op)
	}
}

// Allreduce is Reduce to rank 0 followed by Bcast, as MPICH 1.2 implements
// it.
func (p *Process) Allreduce(pr *sim.Proc, op ReduceOp, buf *mem.Buffer, off, n int) {
	p.Reduce(pr, 0, op, buf, off, n)
	p.Bcast(pr, 0, buf, off, n)
}

// Allgather fills buf with every rank's n-byte contribution (rank i's data
// lands at offset i*n), using a ring: size-1 steps, each passing the most
// recently received block to the right neighbour.
func (p *Process) Allgather(pr *sim.Proc, buf *mem.Buffer, n int) {
	w := p.world
	size := w.Size()
	if buf.Len() < size*n {
		panic(fmt.Sprintf("mpi: allgather buffer %d < %d", buf.Len(), size*n))
	}
	right := (p.rank + 1) % size
	left := (p.rank + size - 1) % size
	cur := p.rank
	for step := 0; step < size-1; step++ {
		sendOff := cur * n
		recvBlock := (cur + size - 1) % size
		// Odd/even phasing avoids rendezvous deadlock on 2 ranks; with
		// non-blocking send+recv it pipelines on larger rings.
		sreq := p.Isend(pr, right, gatherTag, buf, sendOff, n)
		rreq := p.Irecv(pr, left, gatherTag, buf, recvBlock*n, n)
		sreq.Wait(pr)
		rreq.Wait(pr)
		cur = recvBlock
	}
}

// Alltoall exchanges n-byte blocks between every pair: rank i's block j
// (at offset j*n of send) arrives at rank j's offset i*n of recv.
func (p *Process) Alltoall(pr *sim.Proc, send, recv *mem.Buffer, n int) {
	w := p.world
	size := w.Size()
	if send.Len() < size*n || recv.Len() < size*n {
		panic("mpi: alltoall buffers too small")
	}
	// Self block: local copy.
	p.host.Mem.Copy(pr, recv, p.rank*n, send, p.rank*n, n)
	reqs := make([]Request, 0, 2*(size-1))
	for d := 1; d < size; d++ {
		dst := (p.rank + d) % size
		src := (p.rank + size - d) % size
		reqs = append(reqs,
			p.Isend(pr, dst, alltoallTag, send, dst*n, n),
			p.Irecv(pr, src, alltoallTag, recv, src*n, n))
	}
	p.WaitAll(pr, reqs)
}

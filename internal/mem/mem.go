// Package mem models host memory as seen by the communication stacks: user
// buffers with real bytes (backed in host RAM only as far as they have been
// written), copy-on-write views of message payloads in flight, the cost of
// copying between buffers (with a cache/TLB warm-set model), page-granular
// memory registration (pinning), and the pin-down (registration) cache used
// by MPI implementations.
//
// Two of the paper's experiments are driven entirely by this package's cost
// models: Figure 6 (buffer re-use) exercises the registration cache and the
// warm-set model, and the rendezvous costs in Figures 4 and 5 come from
// registration pricing.
package mem

import (
	"fmt"
	"slices"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// Memory is one host's memory system.
type Memory struct {
	eng      *sim.Engine
	name     string
	nextAddr uint64

	// PageSize is the virtual-memory page size (4 KB on the testbed).
	PageSize int
	// CopyRate is warm memcpy bandwidth.
	CopyRate sim.Rate
	// TLBMissCost is the fixed cost of touching a page outside the warm set.
	TLBMissCost sim.Time
	// ColdFillRate prices the extra per-byte cost of accessing cold data
	// (cache-line fills from DRAM): penalty = bytes / ColdFillRate.
	ColdFillRate sim.Rate
	// WarmPages bounds the number of pages the warm set holds (a stand-in
	// for TLB reach and cache capacity). Zero disables the cold-touch model.
	WarmPages int

	warm     map[uint64]struct{} // pages in warmLRU
	warmLRU  []uint64            // least recent first
	coldHits int64

	// Host-byte accounting: simulated bytes handed out by Alloc and backing
	// bytes created for written prefixes (frozen view copies not counted).
	allocated, materialized int64
	cMaterialized, cFreezes *metrics.Counter

	scratch *zeroScratch // Combine's zero operands, shared by the engine's memories
}

// zeroScratch is the scratch space behind Combine's zero operands. One
// per engine serves every host's memory: the engine is single-threaded,
// so no two Combines use it at once.
type zeroScratch struct{ b []byte }

// NewMemory returns a memory with the testbed's default cost model.
func NewMemory(eng *sim.Engine, name string) *Memory {
	reg := eng.Metrics()
	return &Memory{
		eng:           eng,
		name:          name,
		nextAddr:      0x1000,
		PageSize:      4096,
		CopyRate:      2 * sim.GBps,
		TLBMissCost:   sim.Nanos(150),
		ColdFillRate:  1.7 * sim.GBps,
		WarmPages:     48,
		warm:          make(map[uint64]struct{}),
		cMaterialized: reg.Counter("mem.bytes_materialized"),
		cFreezes:      reg.Counter("mem.view_freezes"),
		scratch:       sim.Local[zeroScratch](eng),
	}
}

// Buffer is a contiguous user allocation. Its simulated address, length
// and page span are fixed at Alloc, but host backing bytes exist only for
// the written prefix: the slice grows to cover the highest byte written so
// far, and every byte past it reads as zero. A buffer that is never written
// costs no host memory however large it is.
//
// Bytes are read with Load and written with Store, CopyFrom, Combine and
// Fill. No accessor hands out the backing slice, so every write passes the
// copy-on-write check that keeps live Views intact.
type Buffer struct {
	mem   *Memory
	addr  uint64
	n     int
	data  []byte  // written prefix; data[len:cap] is always zero
	views []*View // live views over this buffer, in creation order
}

// Alloc returns a fresh page-aligned buffer of n bytes, all zero. All its
// pages start cold.
func (m *Memory) Alloc(n int) *Buffer {
	b := &Buffer{}
	m.place(b, n)
	return b
}

// AllocN returns count fresh buffers of n bytes in one slab, at exactly the
// addresses count calls to Alloc(n) would hand out.
func (m *Memory) AllocN(count, n int) []Buffer {
	bufs := make([]Buffer, count)
	for i := range bufs {
		m.place(&bufs[i], n)
	}
	return bufs
}

// place makes b the next page-aligned n-byte buffer.
func (m *Memory) place(b *Buffer, n int) {
	if n <= 0 {
		panic(fmt.Sprintf("mem %s: alloc %d", m.name, n))
	}
	ps := uint64(m.PageSize)
	addr := (m.nextAddr + ps - 1) / ps * ps
	m.nextAddr = addr + uint64(n)
	m.allocated += int64(n)
	*b = Buffer{mem: m, addr: addr, n: n}
}

// Addr returns the buffer's (simulated) virtual address.
func (b *Buffer) Addr() uint64 { return b.addr }

// Len returns the buffer length.
func (b *Buffer) Len() int { return b.n }

func (b *Buffer) check(op string, off, n int) {
	if off < 0 || n < 0 || off+n > b.n {
		panic(fmt.Sprintf("mem: %s [%d,%d) of %d-byte buffer", op, off, off+n, b.n))
	}
}

// Load copies [off, off+len(p)) into p. Bytes never written read as zero.
func (b *Buffer) Load(p []byte, off int) {
	b.check("load", off, len(p))
	loadPrefix(p, b.data, off)
}

// written returns the part of [off, off+n) that lies inside a written
// prefix; the rest of the range reads as zero.
func written(prefix []byte, off, n int) []byte {
	if off >= len(prefix) {
		return nil
	}
	return prefix[off:min(off+n, len(prefix))]
}

// loadPrefix copies [off, off+len(p)) of a zero-extended prefix into p.
func loadPrefix(p, prefix []byte, off int) {
	clear(p[copy(p, written(prefix, off, len(p))):])
}

// Store copies p into [off, off+len(p)).
func (b *Buffer) Store(off int, p []byte) {
	b.check("store", off, len(p))
	copy(b.writable(off, len(p)), p)
}

// CopyFrom copies [soff, soff+n) of src into [off, off+n) of b without
// charging time (Memory.Copy is the timed form). Source bytes that were
// never written land as zeros; when they would land past b's own written
// prefix, nothing is written or allocated at all.
func (b *Buffer) CopyFrom(off int, src *Buffer, soff, n int) {
	b.check("copy into", off, n)
	src.check("copy from", soff, n)
	p := written(src.data, soff, n)
	if src == b {
		p = append([]byte(nil), p...) // b's backing may move below
	}
	b.storeZeroExtended(off, p, n)
}

// Combine folds [soff, soff+n) of src into [off, off+n) of b in place with
// op(dst, src), the way a reduction combines a received partial result
// into its accumulator. When neither range has been written, op runs on a
// zero pair the Memory reuses, and an all-zero result leaves b unwritten:
// those bytes already read as zero.
func (b *Buffer) Combine(off int, src *Buffer, soff, n int, op func(dst, src []byte)) {
	b.check("combine into", off, n)
	src.check("combine from", soff, n)
	if off >= len(b.data) && soff >= len(src.data) {
		d, s := b.mem.zeroPair(n)
		op(d, s)
		if slices.ContainsFunc(d, func(c byte) bool { return c != 0 }) {
			copy(b.writable(off, n), d)
		}
		return
	}
	var p []byte
	if src != b && soff+n <= len(src.data) {
		p = src.data[soff : soff+n]
	} else {
		p = make([]byte, n)
		src.Load(p, soff)
	}
	op(b.writable(off, n), p)
}

// zeroPair returns two zeroed n-byte scratch slices, reusing the engine's
// scratch space between calls.
func (m *Memory) zeroPair(n int) (dst, src []byte) {
	z := m.scratch
	if cap(z.b) < 2*n {
		z.b = make([]byte, 2*n)
	}
	p := z.b[:2*n]
	clear(p)
	return p[:n:n], p[n:]
}

// storeZeroExtended writes p followed by n-len(p) zeros at off, touching
// only the bytes that change: zeros past the written prefix are already
// there.
func (b *Buffer) storeZeroExtended(off int, p []byte, n int) {
	end := max(off+len(p), min(off+n, len(b.data)))
	if end <= off {
		return
	}
	dst := b.writable(off, end-off)
	clear(dst[copy(dst, p):])
}

// writable is the single write path: it freezes every live view over
// [off, off+n), extends the written prefix to cover the range and returns
// the backing bytes for it. The slice is only valid until the next write.
func (b *Buffer) writable(off, n int) []byte {
	if n == 0 {
		return nil
	}
	if len(b.views) > 0 {
		b.freeze(off, n)
	}
	if end := off + n; end > len(b.data) {
		if end > cap(b.data) {
			c := min(b.n, max(end, 2*cap(b.data)))
			grown := make([]byte, end, c)
			copy(grown, b.data)
			b.mem.materialized += int64(c - cap(b.data))
			b.mem.cMaterialized.Add(int64(c - cap(b.data)))
			b.data = grown
		} else {
			b.data = b.data[:end]
		}
	}
	return b.data[off : off+n]
}

// Invariants checks the memory's host-byte accounting: backing bytes are
// only ever created for bytes of allocated buffers, so the materialized
// total can never exceed the allocated total.
func (m *Memory) Invariants() error {
	if m.materialized < 0 || m.materialized > m.allocated {
		return fmt.Errorf("mem %s: %d bytes materialized for %d bytes allocated", m.name, m.materialized, m.allocated)
	}
	return nil
}

// Memory returns the owning memory.
func (b *Buffer) Memory() *Memory { return b.mem }

// Pages returns the number of pages spanned by [off, off+n).
func (b *Buffer) Pages(off, n int) int {
	if n <= 0 {
		return 0
	}
	ps := uint64(b.mem.PageSize)
	first := (b.addr + uint64(off)) / ps
	last := (b.addr + uint64(off+n) - 1) / ps
	return int(last - first + 1)
}

// touch brings page pg into the warm set and reports whether it was cold.
func (m *Memory) touch(pg uint64) bool {
	if m.WarmPages <= 0 {
		return false
	}
	if _, ok := m.warm[pg]; ok {
		// Move to most-recent position.
		m.promote(pg)
		return false
	}
	m.coldHits++
	if len(m.warmLRU) >= m.WarmPages {
		// Evict the least recent page by shifting in place, so the array
		// is reused instead of sliding off its front.
		delete(m.warm, m.warmLRU[0])
		m.warmLRU = m.warmLRU[:copy(m.warmLRU, m.warmLRU[1:])]
	}
	m.warm[pg] = struct{}{}
	m.warmLRU = append(m.warmLRU, pg)
	return true
}

func (m *Memory) promote(pg uint64) {
	// Linear removal is fine: warm sets are tens of entries.
	for i, p := range m.warmLRU {
		if p == pg {
			m.warmLRU = append(m.warmLRU[:i], m.warmLRU[i+1:]...)
			break
		}
	}
	m.warmLRU = append(m.warmLRU, pg)
}

// TouchCost returns the cold-touch penalty for accessing [off, off+n) of b
// with the CPU, updating warm-set state: a TLB-miss charge per cold page
// plus a cache-fill charge for the bytes that live in cold pages.
func (m *Memory) TouchCost(b *Buffer, off, n int) sim.Time {
	if n <= 0 || m.WarmPages <= 0 {
		return 0
	}
	ps := uint64(m.PageSize)
	first := (b.addr + uint64(off)) / ps
	last := (b.addr + uint64(off+n) - 1) / ps
	var cost sim.Time
	for pg := first; pg <= last; pg++ {
		if !m.touch(pg) {
			continue
		}
		// Bytes of the access that fall inside this page.
		start := b.addr + uint64(off)
		end := start + uint64(n)
		pstart := pg * ps
		pend := pstart + ps
		if start > pstart {
			pstart = start
		}
		if end < pend {
			pend = end
		}
		cost += m.TLBMissCost + m.ColdFillRate.TxTime(int(pend-pstart))
	}
	return cost
}

// ColdTouches returns the number of cold page touches so far.
func (m *Memory) ColdTouches() int64 { return m.coldHits }

// CopyCost returns the CPU time to copy n bytes from src to dst, including
// cold-touch penalties on both, and updates warm-set state. It does not move
// any bytes and does not sleep.
func (m *Memory) CopyCost(dst *Buffer, doff int, src *Buffer, soff int, n int) sim.Time {
	cost := m.CopyRate.TxTime(n)
	cost += m.TouchCost(src, soff, n)
	cost += m.TouchCost(dst, doff, n)
	return cost
}

// Copy blocks p for the copy cost and moves the bytes.
func (m *Memory) Copy(p *sim.Proc, dst *Buffer, doff int, src *Buffer, soff int, n int) {
	p.Sleep(m.CopyCost(dst, doff, src, soff, n))
	dst.CopyFrom(doff, src, soff, n)
}

// Fill writes a deterministic pattern derived from seed into the buffer,
// for tests that check end-to-end data integrity with Equal. It backs the
// whole buffer in host memory, so figure drivers, which never read their
// payload, leave buffers unfilled.
func (b *Buffer) Fill(seed byte) {
	p := b.writable(0, b.n)
	for i := range p {
		p[i] = seed + byte(i*131)
	}
}

// Equal reports whether [off, off+n) matches the same range pattern of a
// Fill(seed) buffer.
func (b *Buffer) Equal(seed byte, off, n int) bool {
	b.check("compare", off, n)
	for i := off; i < off+n; i++ {
		var v byte
		if i < len(b.data) {
			v = b.data[i]
		}
		if v != seed+byte(i*131) {
			return false
		}
	}
	return true
}

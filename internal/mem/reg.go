package mem

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// RegCost prices a memory registration: a fixed setup cost (system call,
// NIC table update) plus a per-page pinning/translation cost. The three
// stacks differ sharply here, which drives Figure 6: MVAPICH/IB pays the
// most, NetEffect less, and MX's NIC-assisted registration has a tiny base.
type RegCost struct {
	Base    sim.Time
	PerPage sim.Time
	// DeregBase is the cost to invalidate a registration.
	DeregBase sim.Time
}

// Of returns the cost of registering npages.
func (c RegCost) Of(npages int) sim.Time {
	return c.Base + sim.Time(npages)*c.PerPage
}

// RKey names a registered region, like an InfiniBand rkey or an iWARP STag.
type RKey uint32

// Region is a registered (pinned) window of a buffer. A Region is the
// target/source handle for RDMA operations.
type Region struct {
	Key      RKey
	Buf      *Buffer
	Off, Len int
	// RegRef is the causal ref of the "mem.register" span that pinned the
	// region (RefNone for free registrations or with tracing off); layers
	// that wait on registration chain their next event from it.
	RegRef trace.Ref
	pinned bool
}

// Valid reports whether the region is still registered.
func (r *Region) Valid() bool { return r.pinned }

// Contains reports whether [off, off+n) relative to the region start lies
// inside it.
func (r *Region) Contains(off, n int) bool {
	return off >= 0 && n >= 0 && off+n <= r.Len
}

func (r *Region) check(op string, off, n int) {
	if !r.Contains(off, n) {
		panic(fmt.Sprintf("mem: region %s [%d,%d) of %d-byte region", op, off, off+n, r.Len))
	}
}

// View snapshots [off, off+n) of the region window (see Buffer.View).
func (r *Region) View(off, n int) *View {
	r.check("view", off, n)
	return r.Buf.View(r.Off+off, n)
}

// Load copies [off, off+len(p)) of the region window into p.
func (r *Region) Load(p []byte, off int) {
	r.check("load", off, len(p))
	r.Buf.Load(p, r.Off+off)
}

// Store copies p into the region window at [off, off+len(p)).
func (r *Region) Store(off int, p []byte) {
	r.check("store", off, len(p))
	r.Buf.Store(r.Off+off, p)
}

// RegTable is one NIC's memory registration table (maps keys to pinned
// regions). Registration time is charged to the calling process.
type RegTable struct {
	eng  *sim.Engine
	name string
	Cost RegCost
	// regions[k-1] is the region with key k, nil once deregistered. Keys
	// count up from 1 and are never reused.
	regions []*Region

	ops *sim.FreeList[regOp] // the Then forms' operations in flight

	registrations   int64
	deregistrations int64
	pinnedBytes     int64

	// Aggregate instruments shared by every table on the same engine, so
	// the metrics dump shows one registration story per run (per-table
	// splits remain available through Stats).
	cRegs, cDeregs, cPages *metrics.Counter
	gPinned                *metrics.Gauge
}

// NewRegTable creates a registration table with the given cost model.
func NewRegTable(eng *sim.Engine, name string, cost RegCost) *RegTable {
	reg := eng.Metrics()
	return &RegTable{
		eng: eng, name: name, Cost: cost,
		ops:     sim.FreeListOf[regOp](eng),
		cRegs:   reg.Counter("mem.registrations"),
		cDeregs: reg.Counter("mem.deregistrations"),
		cPages:  reg.Counter("mem.pages_pinned"),
		gPinned: reg.Gauge("mem.pinned_bytes"),
	}
}

// regOp is one registration or deregistration in flight through the Then
// forms, pooled on the engine.
type regOp struct {
	t             *RegTable
	c             *RegCache // GetThen's cache, settled once the pin lands
	buf           *Buffer
	off, n, pages int
	t0            sim.Time
	r             *Region            // DeregisterThen's region
	got           func(*Region, any) // RegisterThen's continuation
	done          func(any)          // DeregisterThen's continuation
	arg           any
}

// Register pins [off, off+n) of buf, charging the registration cost to p.
func (t *RegTable) Register(p *sim.Proc, buf *Buffer, off, n int) *Region {
	pages := t.pages(buf, off, n)
	t0 := t.eng.Now()
	p.Sleep(t.Cost.Of(pages))
	return t.pin(buf, off, n, pages, t0)
}

// RegisterThen is Register for event handlers: the registration cost
// elapses, then got receives the region, settled in cache c if non-nil
// (see RegCache.GetThen), and arg.
func (t *RegTable) RegisterThen(c *RegCache, buf *Buffer, off, n int, got func(*Region, any), arg any) {
	op := t.ops.Get()
	*op = regOp{t: t, c: c, buf: buf, off: off, n: n, pages: t.pages(buf, off, n), t0: t.eng.Now(), got: got, arg: arg}
	t.eng.AfterArg(t.Cost.Of(op.pages), registered, op)
}

func registered(v any) {
	op := v.(*regOp)
	t, c, got, arg := op.t, op.c, op.got, op.arg
	r := t.pin(op.buf, op.off, op.n, op.pages, op.t0)
	if c != nil {
		r = c.settle(r)
	}
	t.ops.Put(op)
	got(r, arg)
}

// pages checks a registration window and counts its pages.
func (t *RegTable) pages(buf *Buffer, off, n int) int {
	if off < 0 || n <= 0 || off+n > buf.Len() {
		panic(fmt.Sprintf("mem %s: register [%d,%d) of %d-byte buffer", t.name, off, off+n, buf.Len()))
	}
	return buf.Pages(off, n)
}

// pin records a charged registration that began at t0 and pins it.
func (t *RegTable) pin(buf *Buffer, off, n, pages int, t0 sim.Time) *Region {
	ref := t.eng.Trc().CompleteR(t.name, "mem.register", int64(t0), int64(t.eng.Now()),
		trace.I64("bytes", int64(n)), trace.I64("pages", int64(pages)))
	t.cPages.Add(int64(pages))
	r := t.register(buf, off, n)
	r.RegRef = ref
	return r
}

// RegisterFree pins without charging time; used for setup-time registrations
// (bounce buffers pre-registered at MPI_Init, which the paper's benchmarks
// never see on the critical path).
func (t *RegTable) RegisterFree(buf *Buffer, off, n int) *Region {
	return t.register(buf, off, n)
}

// RegisterFreeEach pins every buffer of a slab whole, without charging
// time, in one slab of regions. It hands out the same keys as one
// RegisterFree per buffer, in order.
func (t *RegTable) RegisterFreeEach(bufs []Buffer) []Region {
	regs := make([]Region, len(bufs))
	for i := range bufs {
		t.fill(&regs[i], &bufs[i], 0, bufs[i].Len())
	}
	return regs
}

func (t *RegTable) register(buf *Buffer, off, n int) *Region {
	r := &Region{}
	t.fill(r, buf, off, n)
	return r
}

// fill makes r the registration of [off, off+n) of buf under the next key.
func (t *RegTable) fill(r *Region, buf *Buffer, off, n int) {
	t.regions = append(t.regions, r)
	*r = Region{Key: RKey(len(t.regions)), Buf: buf, Off: off, Len: n, pinned: true}
	t.registrations++
	t.pinnedBytes += int64(n)
	t.cRegs.Inc()
	t.gPinned.Add(int64(n))
}

// Deregister unpins a region, charging the deregistration cost to p.
func (t *RegTable) Deregister(p *sim.Proc, r *Region) {
	p.Sleep(t.Cost.DeregBase)
	t.DeregisterFree(r)
}

// DeregisterThen is Deregister for event handlers: the deregistration
// cost elapses, the region is unpinned, then done(arg) runs.
func (t *RegTable) DeregisterThen(r *Region, done func(any), arg any) {
	op := t.ops.Get()
	*op = regOp{t: t, r: r, done: done, arg: arg}
	t.eng.AfterArg(t.Cost.DeregBase, deregistered, op)
}

func deregistered(v any) {
	op := v.(*regOp)
	t, r, done, arg := op.t, op.r, op.done, op.arg
	t.ops.Put(op)
	t.DeregisterFree(r)
	done(arg)
}

// DeregisterFree unpins without charging time.
func (t *RegTable) DeregisterFree(r *Region) {
	if !r.pinned {
		panic(fmt.Sprintf("mem %s: double deregister of key %d", t.name, r.Key))
	}
	r.pinned = false
	t.regions[r.Key-1] = nil
	t.deregistrations++
	t.pinnedBytes -= int64(r.Len)
	t.cDeregs.Inc()
	t.gPinned.Add(-int64(r.Len))
}

// Lookup resolves a key, as a remote NIC does when an RDMA operation
// arrives.
func (t *RegTable) Lookup(key RKey) (*Region, bool) {
	if key == 0 || int(key) > len(t.regions) || t.regions[key-1] == nil {
		return nil, false
	}
	return t.regions[key-1], true
}

// Stats returns (registrations, deregistrations, currently pinned bytes).
func (t *RegTable) Stats() (regs, deregs, pinned int64) {
	return t.registrations, t.deregistrations, t.pinnedBytes
}

// RegCache is a pin-down cache: it keeps registrations alive across
// operations keyed by (address, length) so that re-used buffers skip the
// pinning cost. Capacity is bounded in entries; eviction is LRU. This is
// the mechanism behind the paper's buffer re-use experiment: cycling
// through more distinct buffers than the cache holds makes every operation
// pay full registration.
type RegCache struct {
	Table *RegTable
	// MaxEntries bounds the cache (0 = unbounded).
	MaxEntries int
	// Enabled turns the cache off entirely; every Get registers and the
	// matching Put deregisters, modeling MX with its registration cache
	// disabled (the paper's Section 6.4 ablation).
	Enabled bool

	entries map[cacheKey]*cacheEntry
	lru     []cacheKey
	hits    int64
	misses  int64

	cHits, cMisses *metrics.Counter
}

type cacheKey struct {
	addr uint64
	n    int
}

func cacheKeyOf(buf *Buffer, off, n int) cacheKey {
	return cacheKey{buf.Addr() + uint64(off), n}
}

type cacheEntry struct {
	region *Region
	inUse  int
}

// NewRegCache returns an enabled cache over t.
func NewRegCache(t *RegTable, maxEntries int) *RegCache {
	reg := t.eng.Metrics()
	return &RegCache{
		Table:      t,
		MaxEntries: maxEntries,
		Enabled:    true,
		entries:    make(map[cacheKey]*cacheEntry),
		cHits:      reg.Counter("mem.regcache_hits"),
		cMisses:    reg.Counter("mem.regcache_misses"),
	}
}

// Get returns a pinned region covering [off, off+n) of buf, registering it
// (and charging p) on a cache miss. Get is safe for concurrent use from
// several simulation processes: registration sleeps, and a racing process
// may complete the same registration first, in which case the duplicate pin
// is discarded and the canonical entry shared.
func (c *RegCache) Get(p *sim.Proc, buf *Buffer, off, n int) *Region {
	if r := c.lookup(buf, off, n); r != nil {
		return r
	}
	return c.settle(c.Table.Register(p, buf, off, n))
}

// GetThen is Get for event handlers: got receives the region and arg, at
// once on a hit, after the registration cost on a miss.
func (c *RegCache) GetThen(buf *Buffer, off, n int, got func(*Region, any), arg any) {
	if r := c.lookup(buf, off, n); r != nil {
		got(r, arg)
		return
	}
	c.Table.RegisterThen(c, buf, off, n, got, arg)
}

// lookup takes a use of the cached region of [off, off+n) of buf, or
// counts a miss and returns nil (always, with the cache disabled).
func (c *RegCache) lookup(buf *Buffer, off, n int) *Region {
	if c.Enabled {
		if r := c.share(cacheKeyOf(buf, off, n)); r != nil {
			c.hits++
			c.cHits.Inc()
			return r
		}
	}
	c.misses++
	c.cMisses.Inc()
	return nil
}

// share takes a use of k's cached region, or returns nil.
func (c *RegCache) share(k cacheKey) *Region {
	e, ok := c.entries[k]
	if !ok {
		return nil
	}
	c.promote(k)
	e.inUse++
	return e.region
}

// settle caches r, the registration of a miss, and returns it, unless a
// racing Get cached the same window while r was being pinned: then r is
// dropped and the canonical entry shared. A disabled cache keeps nothing.
func (c *RegCache) settle(r *Region) *Region {
	if !c.Enabled {
		return r
	}
	k := cacheKeyOf(r.Buf, r.Off, r.Len)
	if shared := c.share(k); shared != nil {
		c.Table.DeregisterFree(r)
		return shared
	}
	c.insert(k, r)
	return r
}

func (c *RegCache) insert(k cacheKey, r *Region) {
	for c.MaxEntries > 0 && len(c.lru) >= c.MaxEntries {
		victim := c.evictable()
		if victim == nil {
			break // everything in use; over-commit rather than deadlock
		}
		c.removeKey(*victim)
	}
	c.entries[k] = &cacheEntry{region: r, inUse: 1}
	c.lru = append(c.lru, k)
}

// evictable returns the least-recently-used key with no active users.
func (c *RegCache) evictable() *cacheKey {
	for i := range c.lru {
		if c.entries[c.lru[i]].inUse == 0 {
			k := c.lru[i]
			return &k
		}
	}
	return nil
}

// removeKey evicts an entry. The deregistration is free of charge: real
// pin-down caches unpin lazily, off the critical path.
func (c *RegCache) removeKey(k cacheKey) {
	e := c.entries[k]
	delete(c.entries, k)
	for i := range c.lru {
		if c.lru[i] == k {
			c.lru = append(c.lru[:i], c.lru[i+1:]...)
			break
		}
	}
	c.Table.DeregisterFree(e.region)
}

func (c *RegCache) promote(k cacheKey) {
	for i := range c.lru {
		if c.lru[i] == k {
			c.lru = append(c.lru[:i], c.lru[i+1:]...)
			break
		}
	}
	c.lru = append(c.lru, k)
}

// Put releases the caller's use of a region obtained from Get. With the
// cache enabled the registration stays cached; disabled, it is deregistered
// immediately.
func (c *RegCache) Put(p *sim.Proc, r *Region) {
	if !c.Enabled {
		c.Table.Deregister(p, r)
		return
	}
	c.release(r)
}

// PutThen is Put for event handlers: done(arg) runs at once with the
// cache enabled, after the deregistration cost with it disabled.
func (c *RegCache) PutThen(r *Region, done func(any), arg any) {
	if !c.Enabled {
		c.Table.DeregisterThen(r, done, arg)
		return
	}
	c.release(r)
	done(arg)
}

// release drops one use of a cached region.
func (c *RegCache) release(r *Region) {
	if e, ok := c.entries[cacheKeyOf(r.Buf, r.Off, r.Len)]; ok && e.inUse > 0 {
		e.inUse--
	}
}

// HitRate returns the fraction of Gets served from cache.
func (c *RegCache) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}

// Stats returns (hits, misses, live entries).
func (c *RegCache) Stats() (hits, misses int64, live int) {
	return c.hits, c.misses, len(c.entries)
}

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
	eng     *sim.Engine
	name    string
	Cost    RegCost
	nextKey RKey
	regions map[RKey]*Region

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
		eng: eng, name: name, Cost: cost, nextKey: 1, regions: make(map[RKey]*Region),
		cRegs:   reg.Counter("mem.registrations"),
		cDeregs: reg.Counter("mem.deregistrations"),
		cPages:  reg.Counter("mem.pages_pinned"),
		gPinned: reg.Gauge("mem.pinned_bytes"),
	}
}

// Register pins [off, off+n) of buf, charging the registration cost to p.
func (t *RegTable) Register(p *sim.Proc, buf *Buffer, off, n int) *Region {
	if off < 0 || n <= 0 || off+n > buf.Len() {
		panic(fmt.Sprintf("mem %s: register [%d,%d) of %d-byte buffer", t.name, off, off+n, buf.Len()))
	}
	pages := buf.Pages(off, n)
	t0 := t.eng.Now()
	p.Sleep(t.Cost.Of(pages))
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

func (t *RegTable) register(buf *Buffer, off, n int) *Region {
	r := &Region{Key: t.nextKey, Buf: buf, Off: off, Len: n, pinned: true}
	t.nextKey++
	t.regions[r.Key] = r
	t.registrations++
	t.pinnedBytes += int64(n)
	t.cRegs.Inc()
	t.gPinned.Add(int64(n))
	return r
}

// Deregister unpins a region, charging the deregistration cost to p.
func (t *RegTable) Deregister(p *sim.Proc, r *Region) {
	p.Sleep(t.Cost.DeregBase)
	t.DeregisterFree(r)
}

// DeregisterFree unpins without charging time.
func (t *RegTable) DeregisterFree(r *Region) {
	if !r.pinned {
		panic(fmt.Sprintf("mem %s: double deregister of key %d", t.name, r.Key))
	}
	r.pinned = false
	delete(t.regions, r.Key)
	t.deregistrations++
	t.pinnedBytes -= int64(r.Len)
	t.cDeregs.Inc()
	t.gPinned.Add(-int64(r.Len))
}

// Lookup resolves a key, as a remote NIC does when an RDMA operation
// arrives.
func (t *RegTable) Lookup(key RKey) (*Region, bool) {
	r, ok := t.regions[key]
	return r, ok
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
	if !c.Enabled {
		c.misses++
		c.cMisses.Inc()
		return c.Table.Register(p, buf, off, n)
	}
	k := cacheKey{buf.Addr() + uint64(off), n}
	if e, ok := c.entries[k]; ok {
		c.hits++
		c.cHits.Inc()
		c.promote(k)
		e.inUse++
		return e.region
	}
	c.misses++
	c.cMisses.Inc()
	r := c.Table.Register(p, buf, off, n)
	if e, ok := c.entries[k]; ok {
		// Someone else registered this window while we slept in Register.
		c.Table.DeregisterFree(r)
		c.promote(k)
		e.inUse++
		return e.region
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
	k := cacheKey{r.Buf.Addr() + uint64(r.Off), r.Len}
	if e, ok := c.entries[k]; ok && e.inUse > 0 {
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

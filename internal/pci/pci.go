// Package pci models host I/O buses: PCI-Express links (full duplex, packet
// based) and PCI-X segments (shared, half duplex). The paper's testbed puts
// every NIC on a PCIe x8 slot (the Myri-10G card forced to x4 by the Intel
// E7520 chipset), and the NetEffect RNIC internally bridges its protocol
// engine to PCIe through a 64-bit/133 MHz PCI-X bus — the bottleneck that
// caps iWARP bandwidth in Figures 1 and 4.
//
// Transfers are segmented into TLPs (or PCI-X bursts) with per-packet header
// overhead, which yields the familiar ~80-95% data efficiency of real buses.
// Read transactions additionally pay a request round-trip latency; writes
// are posted.
package pci

import (
	"fmt"

	"repro/internal/sim"
)

// Dir is a transfer direction relative to host memory.
type Dir int

const (
	// ToDevice moves data from host memory to the device (DMA read by the
	// device, or an MMIO doorbell write by the CPU).
	ToDevice Dir = iota
	// ToHost moves data from the device into host memory (DMA write).
	ToHost
)

// Config describes a bus.
type Config struct {
	Name         string
	Rate         sim.Rate // raw signalling rate per direction
	MaxPayload   int      // TLP / burst payload size in bytes
	PacketHeader int      // per-TLP overhead bytes
	ReadLatency  sim.Time // DMA read request -> first data (round trip)
	WriteLatency sim.Time // posted write propagation (one way)
	HalfDuplex   bool     // PCI-X: both directions share one set of wires
	// SharedRate, if non-zero, caps the COMBINED throughput of both
	// directions below the sum of the per-direction rates: the memory-
	// controller/chipset path every transaction crosses. The paper's E7520
	// chipset visibly throttles concurrent DMA on the x4 slot (Myri-10G
	// both-way traffic reaches only ~70% of 2 GB/s).
	SharedRate sim.Rate
}

// Bus is a host I/O bus instance.
type Bus struct {
	eng    *sim.Engine
	cfg    Config
	to     busLine // toward the device
	fro    busLine // toward the host (aliased to &to when half duplex)
	shared busLine // chipset path, when SharedRate is set

	chainEnd sim.Time // end of the last ReadNext: the DMA read chain
}

type busLine struct {
	nextFree sim.Time
	busy     sim.Time
	bytes    int64
}

// New creates a bus.
func New(eng *sim.Engine, cfg Config) *Bus {
	if cfg.Rate <= 0 {
		panic(fmt.Sprintf("pci %q: rate %v", cfg.Name, cfg.Rate))
	}
	if cfg.MaxPayload <= 0 {
		cfg.MaxPayload = 256
	}
	if cfg.PacketHeader < 0 {
		panic(fmt.Sprintf("pci %q: negative header", cfg.Name))
	}
	return &Bus{eng: eng, cfg: cfg}
}

// Config returns the bus configuration.
func (b *Bus) Config() Config { return b.cfg }

func (b *Bus) lineFor(d Dir) *busLine {
	if d == ToDevice || b.cfg.HalfDuplex {
		return &b.to
	}
	return &b.fro
}

// WireTime returns the bus occupancy of a transfer of the given size,
// including per-packet header overhead.
func (b *Bus) WireTime(bytes int) sim.Time {
	if bytes <= 0 {
		return 0
	}
	packets := (bytes + b.cfg.MaxPayload - 1) / b.cfg.MaxPayload
	return b.cfg.Rate.TxTime(bytes + packets*b.cfg.PacketHeader)
}

// Efficiency returns the fraction of the raw rate available to payload for
// large transfers.
func (b *Bus) Efficiency() float64 {
	return float64(b.cfg.MaxPayload) / float64(b.cfg.MaxPayload+b.cfg.PacketHeader)
}

// reserve books the line in direction d starting no earlier than `earliest`,
// plus the shared chipset path if one is configured.
func (b *Bus) reserve(d Dir, earliest sim.Time, bytes int) (start, end sim.Time) {
	l := b.lineFor(d)
	dur := b.WireTime(bytes)
	start = earliest
	if l.nextFree > start {
		start = l.nextFree
	}
	end = start + dur
	l.nextFree = end
	l.busy += dur
	l.bytes += int64(bytes)
	if b.cfg.SharedRate > 0 {
		sdur := b.cfg.SharedRate.TxTime(bytes)
		sstart := start
		if b.shared.nextFree > sstart {
			sstart = b.shared.nextFree
		}
		send := sstart + sdur
		b.shared.nextFree = send
		b.shared.busy += sdur
		if send > end {
			end = send
			l.nextFree = send
		}
	}
	return start, end
}

// Read blocks p while the device DMA-reads `bytes` from host memory: a
// request round trip followed by the data streaming across the bus.
func (b *Bus) Read(p *sim.Proc, bytes int) {
	p.SleepUntil(b.ReadAsync(bytes))
}

// ReadAsync books a DMA read and returns the virtual time at which the last
// byte reaches the device. Safe from engine context.
func (b *Bus) ReadAsync(bytes int) sim.Time {
	return b.ReadFrom(b.eng.Now(), bytes)
}

// ReadFrom is ReadAsync with an explicit earliest start time, for pipelines
// that book several bus stages ahead of the data actually flowing.
func (b *Bus) ReadFrom(earliest sim.Time, bytes int) sim.Time {
	return b.ReadChained(earliest, bytes, true)
}

// ReadChained books one read of a pipelined burst. The first read of a
// burst pays the request round trip; subsequent reads, issued with
// earliest = the previous read's completion, ride the same request pipeline
// without further latency. Spacing successive chunks at completion times
// (rather than booking a whole burst at one instant) keeps the shared
// chipset path fairly interleaved between concurrent DMA streams.
func (b *Bus) ReadChained(earliest sim.Time, bytes int, first bool) sim.Time {
	if b.cfg.HalfDuplex {
		// The read request itself occupies the shared bus briefly.
		b.reserve(ToHost, earliest, b.cfg.PacketHeader)
	}
	if first {
		earliest += b.cfg.ReadLatency
	}
	_, end := b.reserve(ToDevice, earliest, bytes)
	return end
}

// ReadNext books the next read of the bus's DMA read chain, no earlier
// than now, and returns its completion time. While the chain is still
// streaming (its last read ends after now) the read rides the same request
// pipeline from that end without paying the round trip again; after an
// idle gap it starts a new chain at now and pays it (first reports which).
// Callers book just in time, one chunk ahead of the data they consume, so
// the shared chipset path stays fairly interleaved with other DMA traffic.
func (b *Bus) ReadNext(now sim.Time, bytes int) (end sim.Time, first bool) {
	first = b.chainEnd <= now
	b.chainEnd = b.ReadChained(max(now, b.chainEnd), bytes, first)
	return b.chainEnd, first
}

// Write blocks p while the device DMA-writes `bytes` into host memory,
// returning once the data is globally visible.
func (b *Bus) Write(p *sim.Proc, bytes int) {
	p.SleepUntil(b.WriteAsync(bytes))
}

// WriteAsync books a posted DMA write and returns the time the data becomes
// visible in host memory. Safe from engine context.
func (b *Bus) WriteAsync(bytes int) sim.Time {
	return b.WriteFrom(b.eng.Now(), bytes)
}

// WriteFrom is WriteAsync with an explicit earliest start time.
func (b *Bus) WriteFrom(earliest sim.Time, bytes int) sim.Time {
	_, end := b.reserve(ToHost, earliest, bytes)
	return end + b.cfg.WriteLatency
}

// Doorbell books a small MMIO write from the CPU to the device (a work
// request doorbell) and returns its arrival time at the device. The CPU does
// not stall on posted writes, so this never blocks.
func (b *Bus) Doorbell(bytes int) sim.Time {
	if bytes <= 0 {
		bytes = 8
	}
	_, end := b.reserve(ToDevice, b.eng.Now(), bytes)
	return end + b.cfg.WriteLatency
}

// BytesMoved returns total payload bytes moved in each direction.
func (b *Bus) BytesMoved() (toDevice, toHost int64) {
	if b.cfg.HalfDuplex {
		return b.to.bytes, 0
	}
	return b.to.bytes, b.fro.bytes
}

// Utilization returns per-direction busy fractions over [0, now].
func (b *Bus) Utilization() (toDevice, toHost float64) {
	now := b.eng.Now()
	if now == 0 {
		return 0, 0
	}
	if b.cfg.HalfDuplex {
		return float64(b.to.busy) / float64(now), 0
	}
	return float64(b.to.busy) / float64(now), float64(b.fro.busy) / float64(now)
}

// Standard-ish bus configurations for the paper's 2006-era testbed. The
// effective payload rates these yield (raw rate x efficiency) are what the
// calibration in internal/cluster relies on. They are functions, not
// package-level vars: every caller gets a fresh Config value, so no world
// can mutate another's bus model (the sharedstate contract).

// PCIeX8 approximates a PCIe 1.1 x8 slot: 2 GB/s raw per direction,
// 256-byte TLPs with 24 bytes of overhead (~91% efficiency), and the
// multi-microsecond read round trip typical of E7520-era chipsets.
func PCIeX8() Config {
	return Config{
		Name: "pcie-x8", Rate: 2 * sim.GBps, MaxPayload: 256, PacketHeader: 24,
		ReadLatency: 900 * sim.Nanosecond, WriteLatency: 250 * sim.Nanosecond,
		SharedRate: 2150 * sim.MBps,
	}
}

// PCIeX4 halves the lane count. The Myri-10G NIC runs in this mode on
// the testbed ("forced to work in the PCI express x4 mode").
func PCIeX4() Config {
	return Config{
		Name: "pcie-x4", Rate: 1 * sim.GBps, MaxPayload: 512, PacketHeader: 24,
		ReadLatency: 900 * sim.Nanosecond, WriteLatency: 250 * sim.Nanosecond,
		SharedRate: 1450 * sim.MBps,
	}
}

// PCIX133 is one 64-bit/133 MHz PCI-X segment: 1064 MB/s shared between
// directions. The NetEffect NE010's protocol engine sits behind a
// PCI-X-to-PCIe bridge built from two such segments (one per direction
// in our model; see internal/cluster for the bridge construction).
func PCIX133() Config {
	return Config{
		Name: "pcix-133", Rate: 1064 * sim.MBps, MaxPayload: 512, PacketHeader: 16,
		ReadLatency: 500 * sim.Nanosecond, WriteLatency: 150 * sim.Nanosecond,
		HalfDuplex: true,
	}
}

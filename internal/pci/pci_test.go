package pci

import (
	"testing"

	"repro/internal/sim"
)

func simpleCfg(half bool) Config {
	return Config{
		Name: "t", Rate: sim.Rate(1000), // 1000 B/s: easy arithmetic
		MaxPayload: 100, PacketHeader: 10,
		ReadLatency: sim.Microsecond, WriteLatency: 500 * sim.Nanosecond,
		HalfDuplex: half,
	}
}

func TestWireTimeSegmentsTLPs(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, simpleCfg(false))
	// 250 bytes -> 3 TLPs -> 250+30 = 280 bytes on the wire -> 0.28s.
	want := sim.Time(0.28 * float64(sim.Second))
	if got := b.WireTime(250); got != want {
		t.Errorf("WireTime(250) = %v, want %v", got, want)
	}
	if b.WireTime(0) != 0 {
		t.Error("WireTime(0) != 0")
	}
	if e := b.Efficiency(); e < 0.90 || e > 0.92 {
		t.Errorf("efficiency = %v", e)
	}
}

func TestWriteVisibilityLatency(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, simpleCfg(false))
	var done sim.Time
	eng.Go("dev", func(p *sim.Proc) {
		p.Sleep(b.WriteAsync(100) - p.Now()) // 110 wire bytes = 0.11s + 0.5us latency
		done = p.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := sim.Time(0.11*float64(sim.Second)) + 500*sim.Nanosecond
	if done != want {
		t.Errorf("write done = %v, want %v", done, want)
	}
}

func TestReadPaysRoundTrip(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, simpleCfg(false))
	var done sim.Time
	eng.Go("dev", func(p *sim.Proc) {
		p.Sleep(b.ReadAsync(100) - p.Now())
		done = p.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := sim.Microsecond + sim.Time(0.11*float64(sim.Second))
	if done != want {
		t.Errorf("read done = %v, want %v", done, want)
	}
}

func TestFullDuplexDirectionsIndependent(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, simpleCfg(false))
	var wDone, rDone sim.Time
	eng.Go("w", func(p *sim.Proc) { p.Sleep(b.WriteAsync(1000) - p.Now()); wDone = p.Now() })
	eng.Go("r", func(p *sim.Proc) { p.Sleep(b.ReadAsync(1000) - p.Now()); rDone = p.Now() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Each moves 1100 wire bytes = 1.1s; they must not serialize.
	if wDone != sim.Time(1.1*float64(sim.Second))+500*sim.Nanosecond {
		t.Errorf("write done = %v", wDone)
	}
	if rDone != sim.Microsecond+sim.Time(1.1*float64(sim.Second)) {
		t.Errorf("read done = %v", rDone)
	}
}

func TestHalfDuplexSharing(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, simpleCfg(true))
	var wDone, w2Done sim.Time
	eng.Go("w", func(p *sim.Proc) { p.Sleep(b.WriteAsync(1000) - p.Now()); wDone = p.Now() })
	eng.Go("w2", func(p *sim.Proc) { p.Sleep(b.ReadAsync(1000) - p.Now()); w2Done = p.Now() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Opposite directions share the bus: combined occupancy serializes.
	if w2Done <= wDone {
		t.Errorf("half-duplex transfers overlapped: write %v, read %v", wDone, w2Done)
	}
	// Read data (1.1s) must start after write's 1.1s occupancy (order of
	// reservation), i.e. finish near 2.2s + read latency.
	if w2Done < sim.Time(2.2*float64(sim.Second)) {
		t.Errorf("read done = %v, expected serialized after write", w2Done)
	}
}

func TestDoorbellPosted(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, simpleCfg(false))
	var at sim.Time
	eng.Schedule(0, func() { at = b.Doorbell(8) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// 8+10 = 18 wire bytes = 18ms + 0.5us write latency.
	want := sim.Time(0.018*float64(sim.Second)) + 500*sim.Nanosecond
	if at != want {
		t.Errorf("doorbell arrival = %v, want %v", at, want)
	}
}

func TestSameDirectionSerializes(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, simpleCfg(false))
	var ends []sim.Time
	eng.Go("w", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			end := b.WriteAsync(100)
			ends = append(ends, end)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	step := sim.Time(0.11 * float64(sim.Second))
	for i, e := range ends {
		want := step*sim.Time(i+1) + 500*sim.Nanosecond
		if e != want {
			t.Errorf("write %d end = %v, want %v", i, e, want)
		}
	}
}

func TestUtilizationAndBytes(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, simpleCfg(false))
	eng.Go("w", func(p *sim.Proc) { p.Sleep(b.WriteAsync(500) - p.Now()) })
	if err := eng.RunUntil(sim.Second); err != nil {
		t.Fatal(err)
	}
	toDev, toHost := b.BytesMoved()
	if toDev != 0 || toHost != 500 {
		t.Errorf("bytes moved = %d, %d", toDev, toHost)
	}
	_, up := b.Utilization()
	if up < 0.5 || up > 0.6 { // 550 wire bytes / 1000 B/s over 1s
		t.Errorf("toHost utilization = %v", up)
	}
}

func TestStandardConfigs(t *testing.T) {
	eng := sim.NewEngine()
	for _, cfg := range []Config{PCIeX8(), PCIeX4(), PCIX133()} {
		b := New(eng, cfg)
		if e := b.Efficiency(); e < 0.8 || e > 1.0 {
			t.Errorf("%s efficiency = %v", cfg.Name, e)
		}
	}
	// Effective PCIe x8 payload rate must exceed both the IB data rate
	// (1 GB/s) and 10GigE (1.25 GB/s) so the host bus is not the bottleneck
	// for those NICs -- matching the paper's setup.
	b := New(eng, PCIeX8())
	eff := float64(PCIeX8().Rate) * b.Efficiency()
	if eff < 1.3e9 {
		t.Errorf("PCIe x8 effective rate %.0f B/s too low", eff)
	}
}

func TestReadChainedPipelines(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, simpleCfg(false))
	// First chained read pays the round trip; followers booked at the
	// previous completion do not.
	end1 := b.ReadChained(0, 100, true)
	want1 := sim.Microsecond + sim.Time(0.11*float64(sim.Second))
	if end1 != want1 {
		t.Errorf("first chained read end = %v, want %v", end1, want1)
	}
	end2 := b.ReadChained(end1, 100, false)
	if end2 != end1+sim.Time(0.11*float64(sim.Second)) {
		t.Errorf("second chained read end = %v", end2)
	}
}

func TestSharedRateCapsCombined(t *testing.T) {
	eng := sim.NewEngine()
	cfg := simpleCfg(false)
	cfg.SharedRate = sim.Rate(1200) // below 2 x 1000 per-direction
	b := New(eng, cfg)
	// Interleave reads and writes; combined throughput must respect the
	// shared path.
	var lastRead, lastWrite sim.Time
	eng.Go("driver", func(p *sim.Proc) {
		rEnd, wEnd := sim.Time(0), sim.Time(0)
		for i := 0; i < 50; i++ {
			rEnd = b.ReadChained(rEnd, 100, i == 0)
			wEnd = b.WriteFrom(wEnd, 100)
			p.Sleep(10 * sim.Microsecond)
		}
		lastRead, lastWrite = rEnd, wEnd
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	end := lastRead
	if lastWrite > end {
		end = lastWrite
	}
	// 50 x 100B each way = 10000 payload bytes through a 1200 B/s shared
	// path: no earlier than 10000/1200 = 8.33s.
	if end < 83*sim.Second/10 {
		t.Errorf("combined transfers finished at %v; shared cap not applied", end)
	}
	// And the cap must actually bind: without it, 5000 B/direction at
	// 1000 B/s would finish around 5.5s.
	if end < 6*sim.Second {
		t.Errorf("combined transfers at %v look per-direction-bound only", end)
	}
}

func TestSharedRateIdleDirectionUnaffected(t *testing.T) {
	eng := sim.NewEngine()
	cfg := simpleCfg(false)
	cfg.SharedRate = sim.Rate(5000) // far above the 1000 B/s line
	b := New(eng, cfg)
	var done sim.Time
	eng.Go("w", func(p *sim.Proc) { p.Sleep(b.WriteAsync(1000) - p.Now()); done = p.Now() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := sim.Time(1.1*float64(sim.Second)) + 500*sim.Nanosecond
	if done != want {
		t.Errorf("one-way write with slack shared rate = %v, want %v", done, want)
	}
}

package sim

import "testing"

// The engine microbenchmarks cover the three steady-state hot paths every
// simulated experiment exercises: the pure schedule→fire event cycle, the
// process sleep→resume cycle (heap + two coroutine switches), and the
// completion fire/wait handoff. The repository benchmark (simbench/micro.go)
// reruns the same loops to emit BENCH_engine.json; keep the workloads in
// sync.

// BenchmarkScheduleFire measures the no-handle schedule→fire event cycle:
// one event is always in flight, so the heap stays warm and tiny.
func BenchmarkScheduleFire(b *testing.B) {
	e := NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(Nanosecond, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.After(Nanosecond, tick)
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkScheduleFireDepth measures schedule→fire with a deep heap (1024
// events in flight), exercising sift costs at realistic occupancy.
func BenchmarkScheduleFireDepth(b *testing.B) {
	const depth = 1024
	e := NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(Time(1+n%7)*Nanosecond, tick)
		}
	}
	for i := 0; i < depth; i++ {
		e.After(Time(i)*Millisecond+Second, func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.After(Nanosecond, tick)
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSleepCycle measures the process sleep→resume cycle: heap push,
// pop, and the switch into and back out of the process coroutine.
func BenchmarkSleepCycle(b *testing.B) {
	e := NewEngine()
	e.Go("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Nanosecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCompletionHandoff measures the fire→wait ping-pong between two
// processes through pre-allocated completion slots, the pattern the NIC
// models use for work-request completion.
func BenchmarkCompletionHandoff(b *testing.B) {
	e := NewEngine()
	q := NewQueue[int](e, "hand")
	e.Go("producer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Put(i)
			p.Sleep(Nanosecond)
		}
	})
	e.Go("consumer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Get(p)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkScheduleCancel measures the schedule→cancel cycle against a
// standing population of far-future events, the tcpsim retransmission-timer
// pattern: armed every segment, cancelled on every timely ACK.
func BenchmarkScheduleCancel(b *testing.B) {
	e := NewEngine()
	for i := 0; i < 256; i++ {
		e.After(Second+Time(i)*Millisecond, func() {})
	}
	driver := func() {}
	n := 0
	var tick func()
	tick = func() {
		ev := e.Schedule(Millisecond, driver)
		ev.Cancel()
		n++
		if n < b.N {
			e.After(Nanosecond, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.After(Nanosecond, tick)
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

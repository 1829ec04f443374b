package pdes

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

// The runtime's determinism contract: handoffs are delivered in
// (fire time, source shard, per-source sequence) order, never in
// channel-arrival order. The posts below are adversarially scrambled —
// later fire times posted first, sources interleaved — and the OS is free
// to run the two posting shards in any order; the observed delivery order
// on shard 0 must come out sorted regardless.
func TestDeterministicMergeOrder(t *testing.T) {
	const la = 100 * sim.Nanosecond
	for round := 0; round < 20; round++ {
		engs := []*sim.Engine{sim.NewEngine(), sim.NewEngine(), sim.NewEngine()}
		rt := New(engs, la)
		var got []string
		rec := func(v any) { got = append(got, v.(string)) }
		fire1, fire2 := 3*la, 5*la
		engs[1].At(0, func() {
			rt.Post(1, 0, fire2, rec, "t5 s1 q0")
			rt.Post(1, 0, fire1, rec, "t3 s1 q1")
			rt.Post(1, 0, fire1, rec, "t3 s1 q2")
		})
		engs[2].At(0, func() {
			rt.Post(2, 0, fire1, rec, "t3 s2 q0")
			rt.Post(2, 0, fire2, rec, "t5 s2 q1")
		})
		if err := rt.Run(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		want := []string{"t3 s1 q1", "t3 s1 q2", "t3 s2 q0", "t5 s1 q0", "t5 s2 q1"}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: delivery order %v, want %v", round, got, want)
		}
		for i, e := range engs {
			if e.Now() != engs[0].Now() {
				t.Fatalf("round %d: shard %d finished at %v, shard 0 at %v", round, i, e.Now(), engs[0].Now())
			}
		}
	}
}

// Every shard must finish every epoch at the same clock, and a drained
// runtime must be re-runnable (worlds run setup and measurement phases as
// separate Run calls).
func TestRunTwiceAndClockAgreement(t *testing.T) {
	const la = 50 * sim.Nanosecond
	engs := []*sim.Engine{sim.NewEngine(), sim.NewEngine()}
	rt := New(engs, la)
	fired := 0
	engs[0].At(10, func() {
		rt.Post(0, 1, engs[0].Now()+la, func(any) { fired++ }, nil)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("first run delivered %d handoffs, want 1", fired)
	}
	if engs[0].Now() != engs[1].Now() {
		t.Fatalf("clocks diverge after run: %v vs %v", engs[0].Now(), engs[1].Now())
	}
	resume := engs[0].Now()
	engs[1].At(resume+5, func() {
		rt.Post(1, 0, engs[1].Now()+la, func(any) { fired++ }, nil)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("second run delivered %d total handoffs, want 2", fired)
	}
	if engs[0].Now() != engs[1].Now() {
		t.Fatalf("clocks diverge after second run: %v vs %v", engs[0].Now(), engs[1].Now())
	}
}

// A one-engine world runs as a plain Engine.Run, so the runtime must stop
// every shard clock where that run stops: at the world's last event, not at
// an epoch limit past it. The same self-contained workload on shard 0 of a
// 3-shard runtime must finish at the plain run's clock, on every shard.
func TestPlainRunMatchesShardedClock(t *testing.T) {
	const la = 25 * sim.Nanosecond
	workload := func(e *sim.Engine) { e.At(7, func() { e.At(40, func() {}) }) }
	plain := sim.NewEngine()
	workload(plain)
	if err := plain.Run(); err != nil {
		t.Fatal(err)
	}
	engs := []*sim.Engine{sim.NewEngine(), sim.NewEngine(), sim.NewEngine()}
	workload(engs[0])
	if err := New(engs, la).Run(); err != nil {
		t.Fatal(err)
	}
	for i, e := range engs {
		if e.Now() != plain.Now() {
			t.Fatalf("shard %d finished at %v, plain run at %v", i, e.Now(), plain.Now())
		}
	}
}

func TestNewRejectsBadArguments(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("no engines", func() { New(nil, sim.Nanosecond) })
	mustPanic("one engine", func() { New([]*sim.Engine{sim.NewEngine()}, sim.Nanosecond) })
	mustPanic("zero lookahead", func() { New([]*sim.Engine{sim.NewEngine(), sim.NewEngine()}, 0) })
}

// Many shards posting many handoffs at once: totals survive, no handoff is
// lost or duplicated, and the run is race-clean under -race.
func TestFanInStress(t *testing.T) {
	const la = 10 * sim.Nanosecond
	const n = 8
	engs := make([]*sim.Engine, n)
	for i := range engs {
		engs[i] = sim.NewEngine()
	}
	rt := New(engs, la)
	if rt.Shards() != n || rt.Lookahead() != la {
		t.Fatalf("Shards/Lookahead = %d/%v", rt.Shards(), rt.Lookahead())
	}
	counts := make([]int, n)
	for s := 1; s < n; s++ {
		s := s
		var burst func()
		burst = func() {
			now := engs[s].Now()
			for k := 0; k < 4; k++ {
				rt.Post(s, 0, now+la+sim.Time(k), func(any) { counts[0]++ }, nil)
			}
			counts[s]++
			if now < 500 {
				engs[s].At(now+3*la, burst)
			}
		}
		engs[s].At(sim.Time(s), burst)
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for s := 1; s < n; s++ {
		total += counts[s]
	}
	if counts[0] != 4*total {
		t.Fatalf("shard 0 executed %d handoffs, want %d (4 per burst, %d bursts)", counts[0], 4*total, total)
	}
}

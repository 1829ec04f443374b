package trace

import (
	"testing"
)

// events copies a log's events into a slice for indexing in tests.
func events(l *Log) []Event {
	var out []Event
	l.Each(func(ev *Event) { out = append(out, *ev) })
	return out
}

// fakeClock returns a clock that advances by step picoseconds per reading.
func fakeClock(step int64) func() int64 {
	var now int64
	return func() int64 {
		now += step
		return now
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatalf("nil tracer reports Enabled")
	}
	tr.Instant("who", "name", Str("k", "v"))
	tr.Counter("who", "name", 7)
	tr.Complete("who", "name", 10, 20)
	sp := tr.Begin("who", "name", I64("k", 1))
	sp.End(Bool("done", true))
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Log() != nil {
		t.Fatalf("nil tracer recorded something")
	}
}

// TestTraceOverhead is the zero-cost-when-disabled guard: recording against a
// nil tracer must not allocate, including the variadic attribute slices at
// the call site. A regression here means every instrumented hot path in the
// simulator starts paying the garbage collector even with tracing off.
func TestTraceOverhead(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Instant("rank0", "send.eager", I64("dst", 1), I64("bytes", 4096))
		tr.Counter("rank0", "posted_depth", 3)
		tr.Complete("link.up.0", "tx", 100, 200, I64("bytes", 1500))
		sp := tr.Begin("node0", "mem.register", I64("pages", 4))
		sp.End(Bool("hit", false))
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocates %.1f times per op, want 0", allocs)
	}
}

func TestRecordAndClock(t *testing.T) {
	tr := New(fakeClock(10), 0)
	if !tr.Enabled() {
		t.Fatalf("live tracer not enabled")
	}
	tr.Instant("a", "i1")                      // ts=10
	tr.Counter("a", "q", 5)                    // ts=20
	tr.Complete("b", "wire", 100, 250)         // explicit interval
	sp := tr.Begin("c", "span", Str("k", "v")) // start=30
	sp.End(I64("extra", 1))                    // end=40

	evs := events(tr.Log())
	if len(evs) != 4 {
		t.Fatalf("len = %d, want 4", len(evs))
	}
	if evs[0].Ph != PhaseInstant || evs[0].Ts != 10 {
		t.Fatalf("instant = %+v", evs[0])
	}
	if evs[1].Ph != PhaseCounter || evs[1].Ts != 20 || evs[1].Attrs[0].Value() != int64(5) {
		t.Fatalf("counter = %+v", evs[1])
	}
	if evs[2].Ph != PhaseSpan || evs[2].Ts != 100 || evs[2].Dur != 150 {
		t.Fatalf("complete = %+v", evs[2])
	}
	if evs[3].Ph != PhaseSpan || evs[3].Ts != 30 || evs[3].Dur != 10 {
		t.Fatalf("span = %+v", evs[3])
	}
	if len(evs[3].Attrs) != 2 || evs[3].Attrs[0].Key != "k" || evs[3].Attrs[1].Key != "extra" {
		t.Fatalf("span attrs = %+v", evs[3].Attrs)
	}
}

func TestCompleteClampsBackwardInterval(t *testing.T) {
	tr := New(fakeClock(1), 0)
	tr.Complete("a", "x", 50, 40)
	if ev := tr.Log().At(0); ev.Ts != 50 || ev.Dur != 0 {
		t.Fatalf("backward interval = %+v, want ts=50 dur=0", ev)
	}
}

func TestAttrValues(t *testing.T) {
	cases := []struct {
		attr Attr
		want any
	}{
		{Str("s", "hi"), "hi"},
		{I64("i", -3), int64(-3)},
		{F64("f", 2.5), 2.5},
		{Bool("b", true), true},
		{Bool("b", false), false},
	}
	for _, c := range cases {
		if got := c.attr.Value(); got != c.want {
			t.Fatalf("attr %q value = %v (%T), want %v (%T)", c.attr.Key, got, got, c.want, c.want)
		}
	}
}

func TestBufferBound(t *testing.T) {
	tr := New(fakeClock(1), 3)
	for i := 0; i < 5; i++ {
		tr.Instant("a", "e")
	}
	if tr.Len() != 3 {
		t.Fatalf("len = %d, want 3", tr.Len())
	}
	if tr.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", tr.Dropped())
	}
	// The oldest events win: the buffer holds ts 1..3.
	if evs := events(tr.Log()); evs[0].Ts != 1 || evs[2].Ts != 3 {
		t.Fatalf("kept wrong events: %+v", evs)
	}
}

func TestAttrsClonedFromCallSite(t *testing.T) {
	tr := New(fakeClock(1), 0)
	attrs := []Attr{I64("v", 1)}
	tr.Instant("a", "e", attrs...)
	attrs[0] = I64("v", 99)
	if got := tr.Log().At(0).Attrs[0].Value(); got != int64(1) {
		t.Fatalf("recorded attr aliased the call-site slice: %v", got)
	}
}

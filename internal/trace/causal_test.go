package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestRefsAndCausalAttrs(t *testing.T) {
	tr := New(fakeClock(10), 0)
	r1 := tr.InstantR("nic0", "doorbell", I64("bytes", 64))
	r2 := tr.CompleteR("link.0", "tx", 100, 200, Cause(r1))
	tr.Instant("nic1", "deliver", Cause(r2))

	evs := events(tr.Log())
	if len(evs) != 3 {
		t.Fatalf("events = %d, want 3", len(evs))
	}
	if got := evs[0].SelfRef(); got != r1 || r1 == RefNone {
		t.Fatalf("doorbell self = %v, want %v", got, r1)
	}
	if got := evs[1].SelfRef(); got != r2 || r2 == r1 {
		t.Fatalf("tx self = %v, want fresh %v", got, r2)
	}
	if causes := evs[1].CauseRefs(nil); len(causes) != 1 || causes[0] != r1 {
		t.Fatalf("tx causes = %v, want [%v]", causes, r1)
	}
	if causes := evs[2].CauseRefs(nil); len(causes) != 1 || causes[0] != r2 {
		t.Fatalf("deliver causes = %v, want [%v]", causes, r2)
	}
	if evs[1].End() != 200 {
		t.Fatalf("tx end = %d, want 200", evs[1].End())
	}
}

func TestNilTracerRefsAreNone(t *testing.T) {
	var tr *Tracer
	if r := tr.NewRef(); r != RefNone {
		t.Fatalf("nil NewRef = %v", r)
	}
	if r := tr.InstantR("a", "e"); r != RefNone {
		t.Fatalf("nil InstantR = %v", r)
	}
	if r := tr.CompleteR("a", "e", 1, 2); r != RefNone {
		t.Fatalf("nil CompleteR = %v", r)
	}
	if d := tr.DropStats(); d != (DropStats{}) {
		t.Fatalf("nil DropStats = %+v", d)
	}
	if w := tr.LossWarning(); w != "" {
		t.Fatalf("nil LossWarning = %q", w)
	}
}

// RefNone-valued causal attrs come from plumbing that ran while tracing was
// off; they must never appear in a recorded event.
func TestRefNoneAttrsStripped(t *testing.T) {
	tr := New(fakeClock(1), 0)
	tr.Instant("a", "e", Cause(RefNone), I64("bytes", 7), Self(RefNone))
	attrs := tr.Log().At(0).Attrs
	if len(attrs) != 1 || attrs[0].Key != "bytes" {
		t.Fatalf("attrs = %+v, want just bytes", attrs)
	}
}

func TestPerCategoryDrops(t *testing.T) {
	tr := New(fakeClock(1), 2)
	tr.Instant("a", "keep1")
	tr.Instant("a", "keep2")
	// Everything below overflows.
	tr.Instant("a", "lost")
	tr.Complete("a", "lost-span", 1, 2)
	tr.Counter("a", "lost-counter", 3)
	tr.InstantR("a", "lost-causal")
	tr.Instant("a", "lost-edge", Cause(Ref(1)))

	d := tr.DropStats()
	if d.Instants != 3 || d.Spans != 1 || d.Counters != 1 {
		t.Fatalf("drops = %+v", d)
	}
	if d.CausalEdges != 2 {
		t.Fatalf("causal drops = %d, want 2", d.CausalEdges)
	}
	if tr.Dropped() != 5 {
		t.Fatalf("total = %d, want 5", tr.Dropped())
	}
	warn := tr.LossWarning()
	if !strings.Contains(warn, "dropped 5 events") || !strings.Contains(warn, "causal") {
		t.Fatalf("warning = %q", warn)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	tr := New(fakeClock(1_000), 0)
	r1 := tr.InstantR("rank0", "send.eager", I64("bytes", 4096), Str("peer", "rank1"))
	tr.CompleteR("link.0", "tx", 5_000, 9_000, Cause(r1), F64("util", 0.25), Bool("drop", false))

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	log, drops, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	evs := events(log)
	if drops.Total() != 0 || drops.CausalEdges != 0 {
		t.Fatalf("drops = %+v", drops)
	}
	if len(evs) != 2 {
		t.Fatalf("events = %d, want 2", len(evs))
	}
	if evs[0].SelfRef() != r1 || evs[0].Who != "rank0" || evs[0].Ts != 1_000 {
		t.Fatalf("instant = %+v", evs[0])
	}
	if cs := evs[1].CauseRefs(nil); len(cs) != 1 || cs[0] != r1 {
		t.Fatalf("span causes = %v", cs)
	}
	if evs[1].Dur != 4_000 || evs[1].SelfRef() == RefNone {
		t.Fatalf("span = %+v", evs[1])
	}
	// Typed attrs survive the round trip.
	var util, drop, bytesAttr bool
	for _, a := range evs[1].Attrs {
		switch a.Key {
		case "util":
			util = a.Value() == 0.25
		case "drop":
			drop = a.Value() == false
		}
	}
	for _, a := range evs[0].Attrs {
		if a.Key == "bytes" {
			bytesAttr = a.Value() == int64(4096)
		}
	}
	if !util || !drop || !bytesAttr {
		t.Fatalf("attr kinds lost: %+v / %+v", evs[0].Attrs, evs[1].Attrs)
	}
}

func TestJSONLRoundTripDropCounts(t *testing.T) {
	tr := New(fakeClock(1), 1)
	tr.InstantR("a", "keep")
	tr.InstantR("a", "lost") // overflows, carried a Self ref
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	_, drops, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if drops.Instants != 1 || drops.CausalEdges != 1 {
		t.Fatalf("drops = %+v", drops)
	}
}

// TestReadJSONLRejectsNonScalarAttrs: WriteJSONL writes attributes as one
// object of strings, numbers and bools, so anything else is malformed
// input and an error naming the line, not a silently dropped attribute.
func TestReadJSONLRejectsNonScalarAttrs(t *testing.T) {
	for _, attrs := range []string{`[1]`, `{"a":[1]}`, `{"a":{"b":1}}`, `{"a":null}`} {
		line := `{"ph":"i","who":"a","name":"e","ts_ps":0,"attrs":` + attrs + "}\n"
		_, _, err := ReadJSONL(strings.NewReader(`{"ph":"i","who":"a","name":"ok","ts_ps":0}` + "\n" + line))
		if err == nil || !strings.Contains(err.Error(), "line 2: attrs") {
			t.Errorf("attrs %s: err = %v, want a line 2 attrs error", attrs, err)
		}
	}
}

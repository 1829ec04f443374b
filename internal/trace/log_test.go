package trace

import (
	"bytes"
	"math"
	"slices"
	"strconv"
	"testing"
)

// TestLogAcrossChunks records more events than several chunks of the event
// log and the attribute arena hold, with every attribute kind, and checks
// that events keep their addresses as the log grows, that At and Each agree
// with the record order, and that a JSONL round trip returns the same
// events and attributes.
func TestLogAcrossChunks(t *testing.T) {
	const n = 3*maxEventChunk + 100
	floats := []float64{0.1, math.Copysign(0, -1), 1e300, 5e-324}
	tr := New(fakeClock(7), 0)
	var early []*Event
	for i := 0; i < n; i++ {
		attrs := []Attr{
			Str("s", "v"+strconv.Itoa(i)),
			I64("i", int64(-i)),
			F64("f", floats[i%len(floats)]),
			Bool("b", i%2 == 0),
			Cause(Ref(i)), // RefNone at i == 0, which is left out
		}
		switch i % 3 {
		case 0:
			tr.InstantR("who"+strconv.Itoa(i%5), "inst", attrs...)
		case 1:
			tr.CompleteR("span", "sp", int64(i), int64(i+3), attrs...)
		default: // a repeated key, as an event with two causes carries
			tr.Complete("span", "plain", int64(i), int64(i+1), attrs[0], attrs[1], I64("i", int64(i)))
		}
		if i < firstEventChunk {
			early = append(early, tr.Log().At(i))
		}
	}
	log := tr.Log()
	if log.Len() != n {
		t.Fatalf("len = %d, want %d", log.Len(), n)
	}
	for i, ev := range early {
		if ev != log.At(i) || ev.Attrs[0].Value() != "v"+strconv.Itoa(i) {
			t.Fatalf("event %d moved or changed after the log grew: %+v", i, ev)
		}
	}
	i := 0
	log.Each(func(ev *Event) {
		if ev != log.At(i) {
			t.Fatalf("Each and At disagree at %d", i)
		}
		i++
	})
	if got := log.At(0).Attrs; len(got) != 5 || got[4].Key != KeySelf {
		t.Fatalf("first event attrs = %+v, want four plus Self last", got)
	}
	if got := log.At(1).Attrs; len(got) != 6 || got[4].Key != KeyCause || got[5].Key != KeySelf {
		t.Fatalf("second event attrs = %+v, want Cause then Self last", got)
	}
	if f := log.At(1).Attrs[2].Value().(float64); !math.Signbit(f) || f != 0 {
		t.Fatalf("negative zero recorded as %v", f)
	}

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	back, _, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != n {
		t.Fatalf("read %d events, want %d", back.Len(), n)
	}
	// ReadJSONL keeps record order and repeated keys.
	for i := 0; i < n; i++ {
		want, got := log.At(i), back.At(i)
		if want.Ph != got.Ph || want.Who != got.Who || want.Name != got.Name || want.Ts != got.Ts || want.Dur != got.Dur {
			t.Fatalf("event %d = %+v, want %+v", i, got, want)
		}
		if !slices.EqualFunc(want.Attrs, got.Attrs, sameAttr) {
			t.Fatalf("event %d attrs = %+v, want %+v", i, got.Attrs, want.Attrs)
		}
	}
}

// sameAttr compares attributes by key, kind and value, telling -0 from 0.
func sameAttr(a, b Attr) bool {
	fa, aok := a.Value().(float64)
	fb, bok := b.Value().(float64)
	if aok || bok {
		return a.Key == b.Key && aok && bok && math.Float64bits(fa) == math.Float64bits(fb)
	}
	return a.Key == b.Key && a.Value() == b.Value()
}

// TestLogChunkIndex checks At's chunk arithmetic against the geometric
// chunk sizes push allocates.
func TestLogChunkIndex(t *testing.T) {
	var l Log
	for i := 0; i < 2*maxEventChunk+eventChunkSpan+3; i++ {
		l.push().Ts = int64(i)
	}
	for i := 0; i < l.Len(); i++ {
		if ts := l.At(i).Ts; ts != int64(i) {
			t.Fatalf("At(%d).Ts = %d", i, ts)
		}
	}
	if len(l.chunks) != 7 || cap(l.chunks[0]) != firstEventChunk || cap(l.chunks[6]) != maxEventChunk {
		t.Fatalf("%d chunks, first %d, last %d", len(l.chunks), cap(l.chunks[0]), cap(l.chunks[6]))
	}
}

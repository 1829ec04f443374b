// Package trace is a structured, virtual-time event tracer for the
// simulator. Components record spans (who, name, start/end, key=value
// attributes), instant events and counter samples into a bounded in-memory
// buffer; exporters render the buffer as Chrome trace_event JSON (loadable
// in chrome://tracing or Perfetto) or as JSONL for ad-hoc processing.
//
// Tracing is designed to be free when disabled: every recording method is
// safe to call on a nil *Tracer and returns immediately without allocating,
// so instrumented code needs no guards on its fast path. Call sites that
// must compute expensive arguments (fmt.Sprintf labels and the like) can
// check Enabled first.
//
// Timestamps are int64 virtual-time picoseconds (sim.Time widened), supplied
// by a clock callback so the package stays dependency-free.
package trace

import "fmt"

// attrKind discriminates the payload of an Attr without boxing values in an
// interface (which would allocate even when the tracer is nil).
type attrKind uint8

const (
	attrString attrKind = iota
	attrInt
	attrFloat
	attrBool
)

// Attr is one key=value annotation on an event.
type Attr struct {
	Key  string
	kind attrKind
	str  string
	num  int64
	f    float64
}

// Str returns a string-valued attribute.
func Str(key, val string) Attr { return Attr{Key: key, kind: attrString, str: val} }

// I64 returns an integer-valued attribute.
func I64(key string, val int64) Attr { return Attr{Key: key, kind: attrInt, num: val} }

// F64 returns a float-valued attribute.
func F64(key string, val float64) Attr { return Attr{Key: key, kind: attrFloat, f: val} }

// Bool returns a boolean-valued attribute.
func Bool(key string, val bool) Attr {
	a := Attr{Key: key, kind: attrBool}
	if val {
		a.num = 1
	}
	return a
}

// Ref identifies one event as a node in the causal DAG. Refs are handed out
// by Tracer.NewRef and attached to events with Self; a later event names the
// event that enabled it with Cause. RefNone (zero) means "no ref": a nil
// tracer hands out RefNone, and Self/Cause attrs carrying RefNone are
// dropped at record time, so causal plumbing is free when tracing is off.
type Ref int64

// RefNone is the zero Ref: no causal identity.
const RefNone Ref = 0

// Reserved attribute keys for causal edges. Instrumentation must use the
// Self and Cause constructors rather than spelling these strings (the
// tracekeys analyzer enforces this); analysis tools key on them.
const (
	KeySelf  = "causal.self"
	KeyCause = "causal.cause"
)

// Self marks the event as causal node r. One event carries at most one Self.
func Self(r Ref) Attr { return Attr{Key: KeySelf, kind: attrInt, num: int64(r)} }

// Cause records that the event was enabled by node r. An event may carry
// several Cause attrs (several incoming DAG edges); analysis picks the
// latest-completing one for the critical path.
func Cause(r Ref) Attr { return Attr{Key: KeyCause, kind: attrInt, num: int64(r)} }

// Value returns the attribute's payload as an any (exported for tests and
// the JSON exporters; boxing here is off the recording path).
func (a Attr) Value() any {
	switch a.kind {
	case attrString:
		return a.str
	case attrInt:
		return a.num
	case attrFloat:
		return a.f
	default:
		return a.num != 0
	}
}

// Event phases, mirroring the Chrome trace_event "ph" field.
const (
	PhaseSpan    = 'X' // complete span with duration
	PhaseInstant = 'i' // instant event
	PhaseCounter = 'C' // counter sample
)

// Event is one recorded trace entry.
type Event struct {
	Ph    byte
	Who   string // track: a process, NIC engine, link or MPI rank
	Name  string
	Ts    int64 // virtual time, picoseconds
	Dur   int64 // span duration, picoseconds (spans only)
	Attrs []Attr
}

// DropStats breaks ring-buffer overflow down by event category. CausalEdges
// counts dropped events that carried causal attributes (Self or Cause): a
// non-zero value means the event DAG has holes, and internal/causal refuses
// to analyze such a trace.
type DropStats struct {
	Spans       int64
	Instants    int64
	Counters    int64
	CausalEdges int64
}

// Total returns the number of dropped events across all phase categories.
func (d DropStats) Total() int64 { return d.Spans + d.Instants + d.Counters }

// Tracer records events into a bounded buffer. The zero value is not usable;
// create tracers with New. A nil *Tracer is valid and records nothing.
type Tracer struct {
	clock   func() int64
	max     int
	events  []Event
	dropped DropStats
	lastRef Ref
}

// DefaultMaxEvents bounds a tracer when the caller does not choose a limit.
const DefaultMaxEvents = 1 << 20

// New returns a tracer reading timestamps from clock, keeping at most
// maxEvents events (older events win; later ones are counted as dropped).
// maxEvents <= 0 selects DefaultMaxEvents.
func New(clock func() int64, maxEvents int) *Tracer {
	if maxEvents <= 0 {
		maxEvents = DefaultMaxEvents
	}
	return &Tracer{clock: clock, max: maxEvents}
}

// Enabled reports whether events are being recorded. It is the guard for
// call sites that would otherwise compute expensive labels.
func (t *Tracer) Enabled() bool { return t != nil }

// Len returns the number of buffered events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// Dropped returns how many events were discarded because the buffer was full.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Total()
}

// DropStats returns the per-category drop counts.
func (t *Tracer) DropStats() DropStats {
	if t == nil {
		return DropStats{}
	}
	return t.dropped
}

// LossWarning describes buffer overflow, or returns "" for a lossless trace.
// Exporters print it to stderr so a lossy capture never passes silently.
func (t *Tracer) LossWarning() string {
	if t == nil || t.dropped.Total() == 0 {
		return ""
	}
	d := t.dropped
	msg := fmt.Sprintf("trace: buffer full, dropped %d events (%d spans, %d instants, %d counters)",
		d.Total(), d.Spans, d.Instants, d.Counters)
	if d.CausalEdges > 0 {
		msg += fmt.Sprintf("; %d carried causal edges — the event DAG is incomplete and causal analysis will refuse this trace", d.CausalEdges)
	}
	return msg
}

// NewRef allocates a fresh causal node id. A nil tracer returns RefNone, so
// instrumentation can allocate refs unconditionally.
func (t *Tracer) NewRef() Ref {
	if t == nil {
		return RefNone
	}
	t.lastRef++
	return t.lastRef
}

// Events returns the buffered events in record order. The slice is shared;
// callers must not mutate it.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}

// Instant records a point-in-time event at the current virtual time.
func (t *Tracer) Instant(who, name string, attrs ...Attr) {
	if t == nil {
		return
	}
	t.record(PhaseInstant, who, name, t.clock(), 0, attrs)
}

// InstantR is Instant plus a fresh Self ref on the event, returned so the
// caller can thread it as a later event's Cause. Nil tracers return RefNone.
func (t *Tracer) InstantR(who, name string, attrs ...Attr) Ref {
	if t == nil {
		return RefNone
	}
	r := t.NewRef()
	a := withSelf(attrs, r)
	t.recordOwned(PhaseInstant, who, name, t.clock(), 0, a)
	return r
}

// CompleteSelf is Complete with a caller-allocated Self ref (from NewRef),
// for spans whose node id must be known before the span ends — e.g. an MPI
// call span whose ref is threaded into work requests posted mid-call.
// Passing RefNone records the span without a causal identity.
func (t *Tracer) CompleteSelf(who, name string, self Ref, start, end int64, attrs ...Attr) {
	if t == nil {
		return
	}
	if end < start {
		end = start
	}
	a := withSelf(attrs, self)
	t.recordOwned(PhaseSpan, who, name, start, end-start, a)
}

// CompleteR is Complete plus a fresh Self ref on the span.
func (t *Tracer) CompleteR(who, name string, start, end int64, attrs ...Attr) Ref {
	if t == nil {
		return RefNone
	}
	if end < start {
		end = start
	}
	r := t.NewRef()
	a := withSelf(attrs, r)
	t.recordOwned(PhaseSpan, who, name, start, end-start, a)
	return r
}

// Counter records a counter sample (rendered as a stacked chart track by
// Perfetto); use it for queue depths and similar evolving quantities.
func (t *Tracer) Counter(who, name string, value int64) {
	if t == nil {
		return
	}
	t.recordOwned(PhaseCounter, who, name, t.clock(), 0, []Attr{I64("value", value)})
}

// Complete records a span whose start and end are already known, e.g. a
// frame's wire occupancy computed from link bookkeeping.
func (t *Tracer) Complete(who, name string, start, end int64, attrs ...Attr) {
	if t == nil {
		return
	}
	if end < start {
		end = start
	}
	t.record(PhaseSpan, who, name, start, end-start, attrs)
}

// Span is an in-progress interval started by Begin. The zero value (from a
// nil tracer) is valid; End on it is a no-op.
type Span struct {
	t     *Tracer
	who   string
	name  string
	start int64
	attrs []Attr
}

// Begin opens a span at the current virtual time. Close it with End.
func (t *Tracer) Begin(who, name string, attrs ...Attr) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, who: who, name: name, start: t.clock(), attrs: cloneAttrs(attrs)}
}

// End closes the span at the current virtual time, appending any extra
// attributes gathered while it ran.
func (s Span) End(attrs ...Attr) {
	if s.t == nil {
		return
	}
	a := s.attrs
	if len(attrs) > 0 {
		a = append(append([]Attr(nil), s.attrs...), attrs...)
	}
	end := s.t.clock()
	s.t.recordOwned(PhaseSpan, s.who, s.name, s.start, end-s.start, a)
}

// record buffers one event, cloning attrs so variadic call-site slices never
// escape to the heap (the nil-tracer fast path must not allocate).
func (t *Tracer) record(ph byte, who, name string, ts, dur int64, attrs []Attr) {
	t.recordOwned(ph, who, name, ts, dur, cloneAttrs(attrs))
}

// recordOwned buffers one event taking ownership of attrs. RefNone-valued
// causal attrs (from plumbing that ran before tracing was enabled) are
// stripped in place so the DAG never contains edges to node 0.
func (t *Tracer) recordOwned(ph byte, who, name string, ts, dur int64, attrs []Attr) {
	attrs = stripNoneRefs(attrs)
	if len(t.events) >= t.max {
		switch ph {
		case PhaseSpan:
			t.dropped.Spans++
		case PhaseInstant:
			t.dropped.Instants++
		default:
			t.dropped.Counters++
		}
		if hasCausalAttr(attrs) {
			t.dropped.CausalEdges++
		}
		return
	}
	t.events = append(t.events, Event{Ph: ph, Who: who, Name: name, Ts: ts, Dur: dur, Attrs: attrs})
}

// stripNoneRefs removes causal attrs whose ref is RefNone, compacting the
// owned slice in place (no allocation).
func stripNoneRefs(attrs []Attr) []Attr {
	kept := attrs[:0]
	for _, a := range attrs {
		if a.num == int64(RefNone) && (a.Key == KeySelf || a.Key == KeyCause) {
			continue
		}
		kept = append(kept, a)
	}
	if len(kept) == 0 {
		return nil
	}
	return kept
}

// hasCausalAttr reports whether the event participates in the causal DAG.
func hasCausalAttr(attrs []Attr) bool {
	for _, a := range attrs {
		if a.Key == KeySelf || a.Key == KeyCause {
			return true
		}
	}
	return false
}

// SelfRef returns the event's causal node id, or RefNone.
func (e *Event) SelfRef() Ref {
	for _, a := range e.Attrs {
		if a.Key == KeySelf {
			return Ref(a.num)
		}
	}
	return RefNone
}

// CauseRefs appends the event's incoming causal edges to buf and returns it.
func (e *Event) CauseRefs(buf []Ref) []Ref {
	for _, a := range e.Attrs {
		if a.Key == KeyCause {
			buf = append(buf, Ref(a.num))
		}
	}
	return buf
}

// End returns the event's end time (start for instants and counters).
func (e *Event) End() int64 { return e.Ts + e.Dur }

// cloneAttrs copies a variadic attribute slice. It only reads its argument,
// which lets the compiler keep call-site backing arrays on the stack.
func cloneAttrs(attrs []Attr) []Attr {
	if len(attrs) == 0 {
		return nil
	}
	return append([]Attr(nil), attrs...)
}

// withSelf copies attrs with a Self(r) attr appended, in one allocation.
// Like cloneAttrs, it only reads its argument.
func withSelf(attrs []Attr, r Ref) []Attr {
	a := make([]Attr, len(attrs)+1)
	copy(a, attrs)
	a[len(attrs)] = Self(r)
	return a
}

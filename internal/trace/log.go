package trace

import "math/bits"

// Chunk sizes of the event log and the attribute arena. Both start small
// and double up to a cap, so a short trace pays only for what it records
// and a long one never copies what it already holds: a full chunk is kept
// as it is and a new one is started.
const (
	firstEventChunk = 256
	maxEventChunk   = 4096
	firstAttrChunk  = 256
	maxAttrChunk    = 8192
)

// eventChunkSpan is the number of events the growing chunks hold before
// the first capped one: 256 + 512 + ... + 2048.
const eventChunkSpan = maxEventChunk - firstEventChunk

// Log is a recorded trace: events in record order plus the attributes they
// carry. Events live in chunks that are never copied, so the pointer that
// At returns stays valid while the log grows. Attributes are copied once
// into an arena owned by the log; an event's Attrs slice points into it.
// A nil *Log is an empty log.
type Log struct {
	chunks [][]Event
	n      int
	attrs  []Attr // current arena chunk: len is used, cap is its size
}

// Len returns the number of events.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	return l.n
}

// At returns the i-th event in record order. The event must not be
// modified.
func (l *Log) At(i int) *Event {
	if i < 0 || i >= l.Len() {
		panic("trace: event index out of range")
	}
	c, off := chunkOf(i)
	return &l.chunks[c][off]
}

// Each calls fn on every event in record order.
func (l *Log) Each(fn func(ev *Event)) {
	if l == nil {
		return
	}
	for _, c := range l.chunks {
		for i := range c {
			fn(&c[i])
		}
	}
}

// chunkOf maps an event index to its chunk and the offset inside it.
// Chunk k < 5 holds firstEventChunk<<k events; every later chunk holds
// maxEventChunk.
func chunkOf(i int) (chunk, off int) {
	if i >= eventChunkSpan {
		i -= eventChunkSpan
		return bits.Len(eventChunkSpan/firstEventChunk) + i/maxEventChunk, i % maxEventChunk
	}
	k := bits.Len(uint(i/firstEventChunk+1)) - 1
	return k, i - firstEventChunk*((1<<k)-1)
}

// push appends a zero event and returns it for the caller to fill.
func (l *Log) push() *Event {
	last := len(l.chunks) - 1
	if last < 0 || len(l.chunks[last]) == cap(l.chunks[last]) {
		size := firstEventChunk
		if last >= 0 {
			size = min(2*cap(l.chunks[last]), maxEventChunk)
		}
		l.chunks = append(l.chunks, make([]Event, 0, size))
		last++
	}
	c := l.chunks[last]
	l.chunks[last] = c[:len(c)+1]
	l.n++
	return &l.chunks[last][len(c)]
}

// reserve returns arena room for up to n attributes. The caller fills a
// prefix of it and hands that prefix to keep; nothing reserved is used
// until then.
func (l *Log) reserve(n int) []Attr {
	if n > cap(l.attrs)-len(l.attrs) {
		size := firstAttrChunk
		if cap(l.attrs) > 0 {
			size = min(2*cap(l.attrs), maxAttrChunk)
		}
		l.attrs = make([]Attr, 0, max(size, n))
	}
	return l.attrs[len(l.attrs) : len(l.attrs)+n]
}

// keep commits the first k attributes of the last reserve and returns
// them, capped so that appending to the result can never overwrite a
// neighbour. Zero attributes are kept as nil.
func (l *Log) keep(k int) []Attr {
	if k == 0 {
		return nil
	}
	start := len(l.attrs)
	l.attrs = l.attrs[:start+k]
	return l.attrs[start : start+k : start+k]
}

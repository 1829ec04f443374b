package mem

import "fmt"

// View is a copy-on-write snapshot of [off, off+n) of a buffer: the bytes
// a NIC will put on the wire for one message, as they were when the
// message was posted. A live view reads straight from its source buffer;
// the first write that touches its range first copies the view's bytes out
// (a freeze, counted by mem.view_freezes), so data in flight never sees a
// later write and an unmodified source is never copied at all.
//
// A view has two holders. The sender drops its hold with Release once its
// completion has fired; the receiver drops its hold implicitly when it has
// read every byte (placed it, or copied it into adapter memory). Only when
// both are gone does the view detach from its buffer. Releasing late costs
// at most a freeze; reading a detached view is a bug and panics.
type View struct {
	buf      *Buffer // source while live; nil once frozen or detached
	off, n   int
	frozen   []byte // copied-out written prefix of the range; the rest is zero
	consumed int    // bytes the receiver has read
	released bool   // the sender's hold is gone
	dead     bool
	snap     bool // taken by Snapshot: immutable, no holders
}

// View snapshots [off, off+n) of b.
func (b *Buffer) View(off, n int) *View {
	b.check("view", off, n)
	v := &View{buf: b, off: off, n: n}
	if n == 0 {
		v.buf = nil
		return v
	}
	b.views = append(b.views, v)
	return v
}

// Snapshot is View for a receiver that runs on another engine (a sharded
// world): it copies the written part of the range now and is never changed
// afterwards, so the two engines share nothing mutable. Release and reads
// do not track holders.
func (b *Buffer) Snapshot(off, n int) *View {
	b.check("snapshot", off, n)
	return &View{off: off, n: n, snap: true, frozen: append([]byte(nil), written(b.data, off, n)...)}
}

// Len returns the view's length in bytes.
func (v *View) Len() int { return v.n }

// CopyTo places [voff, voff+n) of the view at [off, off+n) of dst and
// counts the bytes as read by the receiver.
func (v *View) CopyTo(dst *Buffer, off, voff, n int) {
	v.check(voff, n)
	if v.buf != nil {
		dst.CopyFrom(off, v.buf, v.off+voff, n)
	} else {
		dst.check("copy into", off, n)
		dst.storeZeroExtended(off, written(v.frozen, voff, n), n)
	}
	v.consume(n)
}

// Stash copies [voff, voff+n) of the view into adapter memory at
// buf[off:off+n], growing buf as needed, and counts the bytes as read by
// the receiver.
func (v *View) Stash(buf []byte, off, voff, n int) []byte {
	v.check(voff, n)
	if end := off + n; end > len(buf) {
		buf = append(buf, make([]byte, end-len(buf))...)
	}
	if v.buf != nil {
		loadPrefix(buf[off:off+n], v.buf.data, v.off+voff)
	} else {
		loadPrefix(buf[off:off+n], v.frozen, voff)
	}
	v.consume(n)
	return buf
}

// Release drops the sender's hold.
func (v *View) Release() {
	if v.snap {
		return
	}
	v.released = true
	v.detachIfDone()
}

func (v *View) check(voff, n int) {
	if v.dead && n > 0 {
		panic("mem: read of a released view")
	}
	if voff < 0 || n < 0 || voff+n > v.n {
		panic(fmt.Sprintf("mem: view read [%d,%d) of %d-byte view", voff, voff+n, v.n))
	}
}

func (v *View) consume(n int) {
	if v.snap {
		return
	}
	v.consumed += n
	v.detachIfDone()
}

func (v *View) detachIfDone() {
	if !v.released || v.consumed < v.n {
		return
	}
	if v.buf != nil {
		v.buf.dropView(v)
	}
	v.dead = true
	v.frozen = nil
}

// freeze copies out every live view overlapping [off, off+n) ahead of a
// write to that range.
func (b *Buffer) freeze(off, n int) {
	kept := b.views[:0]
	for _, v := range b.views {
		if v.off >= off+n || off >= v.off+v.n {
			kept = append(kept, v)
			continue
		}
		v.frozen = append([]byte(nil), written(b.data, v.off, v.n)...)
		v.buf = nil
		b.mem.cFreezes.Inc()
	}
	clear(b.views[len(kept):])
	b.views = kept
}

func (b *Buffer) dropView(v *View) {
	for i, w := range b.views {
		if w == v {
			last := len(b.views) - 1
			copy(b.views[i:], b.views[i+1:])
			b.views[last] = nil
			b.views = b.views[:last]
			return
		}
	}
}

package des

import (
	"fmt"
	"math/bits"
)

// Wheel is a bucketed timestamp wheel: the pending-event calendar of the
// event-driven cores. Events are pushed at integer slots (never into the
// past) and drained slot by slot in (slot, push order) — exactly the
// (time, seq) order of a binary heap fed the same pushes, but with O(1)
// enqueue, O(occupied) dequeue, and no per-event allocation.
//
// The wheel covers a sliding window of power-of-two size starting at the
// current slot. Pushes inside the window append to a ring bucket and set
// a bit in the occupancy bitmap; pushes beyond it park in a small (time,
// seq) overflow heap and are promoted into buckets as the window slides
// forward, before any direct push to those slots can happen — which is
// what preserves global push order per bucket (see the package comment).
//
// Drain protocol:
//
//	for w.Len() > 0 {
//		t := w.OpenSlot()
//		for i := 0; i < w.SlotLen(); i++ {  // re-reads len: same-slot
//			e := w.Event(i)                 // pushes during the drain
//			... handle, w.Push(t+d, ...)    // are picked up in order
//		}
//		w.CloseSlot()
//	}
//
// The zero value is ready for Reset. Wheel is not safe for concurrent
// use.
type Wheel[E any] struct {
	buckets [][]E    // ring of per-slot event buckets
	occ     []uint64 // occupancy bitmap over ring positions
	mask    int      // len(buckets) - 1 (power of two)
	cur     int      // window start: earliest slot still admissible
	open    int      // slot currently being drained, -1 if none
	pending int      // events in buckets + far
	far     []farEvent[E]
	farSeq  int

	// Per-run stats, folded into the des.* counters by FoldStats so the
	// event loop never touches atomics.
	sSlots, sEvents, sSkipped, sFar, sProm, sHigh int64
}

// farEvent is an event parked beyond the wheel window, ordered by (t,
// seq) so promotion replays global push order.
type farEvent[E any] struct {
	t, seq int
	e      E
}

// Reset empties the wheel and sizes its window to cover at least horizon
// slots beyond the current one (the maximum scheduling delay of the run:
// Jitter+1 for the MAC engine, 1 for the ideal engine). Delays beyond
// the horizon still work — they overflow to the far heap — the horizon
// only tunes how rarely that happens. Storage is kept across Resets;
// after the first run of a given size the wheel allocates nothing.
func (w *Wheel[E]) Reset(horizon int) {
	size := 16
	for size < horizon {
		size <<= 1
	}
	if size > len(w.buckets) {
		w.buckets = make([][]E, size)
		w.occ = make([]uint64, (size+63)/64)
		w.mask = size - 1
	} else if w.pending > 0 || w.open >= 0 {
		// Abandoned run: clear leftover buckets via the occupancy map.
		for wi, x := range w.occ {
			for x != 0 {
				b := bits.TrailingZeros64(x)
				x &^= 1 << uint(b)
				p := wi<<6 + b
				clear(w.buckets[p])
				w.buckets[p] = w.buckets[p][:0]
			}
			w.occ[wi] = 0
		}
	}
	for i := range w.far {
		w.far[i] = farEvent[E]{}
	}
	w.far = w.far[:0]
	w.cur, w.open, w.pending, w.farSeq = 0, -1, 0, 0
}

// Len returns the number of pending events (buckets + far heap).
func (w *Wheel[E]) Len() int { return w.pending }

// Push schedules e at slot t. Pushing before the open slot (or, with no
// slot open, before the window start) panics: the calendar never travels
// back in time. Pushing at the open slot is allowed and the event is
// picked up by the current drain, matching the reference engines'
// same-time decision→transmission chains.
func (w *Wheel[E]) Push(t int, e E) {
	floor := w.cur
	if w.open >= 0 {
		floor = w.open
	}
	if t < floor {
		panic(fmt.Sprintf("des: push into the past (t=%d, floor=%d)", t, floor))
	}
	if t < w.cur+len(w.buckets) {
		p := t & w.mask
		w.buckets[p] = append(w.buckets[p], e)
		w.occ[p>>6] |= 1 << uint(p&63)
	} else {
		w.farPush(t, e)
		w.sFar++
	}
	w.pending++
	if int64(w.pending) > w.sHigh {
		w.sHigh = int64(w.pending)
	}
}

// OpenSlot advances to the earliest pending slot, promotes due far
// events, and opens that slot for draining. It must not be called on an
// empty wheel.
func (w *Wheel[E]) OpenSlot() int {
	if w.pending == 0 {
		panic("des: OpenSlot on empty wheel")
	}
	if w.open >= 0 {
		panic("des: OpenSlot with a slot already open")
	}
	entry := w.cur
	w.promote()
	t, ok := w.scan()
	if !ok {
		// Everything pending is beyond the window: jump straight to the
		// earliest far event.
		w.cur = w.far[0].t
		w.promote()
		t, _ = w.scan()
	} else if t > w.cur {
		// Slide the window to the slot we are about to drain so pushes
		// during the drain get the widest direct range, then promote any
		// far events the slide brought into range (they were pushed
		// before any direct push to those slots could happen, so
		// promoting first preserves push order).
		w.cur = t
		w.promote()
	}
	w.sSkipped += int64(t - entry)
	w.open = t
	return t
}

// SlotLen returns the current length of the open slot's bucket. It is
// re-evaluated on every call so same-slot pushes during a drain extend
// the iteration.
func (w *Wheel[E]) SlotLen() int { return len(w.buckets[w.open&w.mask]) }

// Event returns the i-th event of the open slot.
func (w *Wheel[E]) Event(i int) E { return w.buckets[w.open&w.mask][i] }

// Bucket returns the open slot's bucket. The slice is invalidated by
// same-slot pushes (use SlotLen/Event when the drain can push into its
// own slot); engines that never do — the MAC engine schedules at t+1 at
// the earliest — may filter it in place.
func (w *Wheel[E]) Bucket() []E { return w.buckets[w.open&w.mask] }

// CloseSlot finishes the open slot: all its events count as drained, the
// bucket is cleared (zeroing payloads so pooled packets are not pinned),
// and the window advances past the slot.
func (w *Wheel[E]) CloseSlot() {
	p := w.open & w.mask
	n := len(w.buckets[p])
	w.pending -= n
	w.sEvents += int64(n)
	w.sSlots++
	clear(w.buckets[p])
	w.buckets[p] = w.buckets[p][:0]
	w.occ[p>>6] &^= 1 << uint(p&63)
	w.cur = w.open + 1
	w.open = -1
}

// FoldStats folds the run's wheel statistics into the des.* counters and
// zeroes them. Engines call it once per run, outside the event loop. The
// occupancy high-water folds as a process-wide maximum, not a sum.
func (w *Wheel[E]) FoldStats() {
	mSlots.Add(w.sSlots)
	mEvents.Add(w.sEvents)
	mSkipped.Add(w.sSkipped)
	mFar.Add(w.sFar)
	mPromoted.Add(w.sProm)
	mHighWater.SetMax(w.sHigh)
	w.sSlots, w.sEvents, w.sSkipped, w.sFar, w.sProm, w.sHigh = 0, 0, 0, 0, 0, 0
}

// promote moves far events whose slot entered the window into their
// buckets, in (t, seq) order.
func (w *Wheel[E]) promote() {
	lim := w.cur + len(w.buckets)
	for len(w.far) > 0 && w.far[0].t < lim {
		fe := w.farPop()
		p := fe.t & w.mask
		w.buckets[p] = append(w.buckets[p], fe.e)
		w.occ[p>>6] |= 1 << uint(p&63)
		w.sProm++
	}
}

// scan finds the earliest occupied slot in the window [cur, cur+size),
// scanning the occupancy bitmap a word at a time from cur's ring
// position with wraparound.
func (w *Wheel[E]) scan() (int, bool) {
	p0 := w.cur & w.mask
	w0 := p0 >> 6
	b0 := uint(p0 & 63)
	nw := len(w.occ)
	for k := 0; k <= nw; k++ {
		wi := w0 + k
		if wi >= nw {
			wi -= nw
		}
		x := w.occ[wi]
		if k == 0 {
			x &^= (1 << b0) - 1 // positions before p0 belong to the wrapped tail
		}
		if k == nw {
			x &= (1 << b0) - 1 // wrapped tail of the start word
		}
		if x != 0 {
			p := wi<<6 + bits.TrailingZeros64(x)
			if p >= p0 {
				return w.cur + (p - p0), true
			}
			return w.cur + (len(w.buckets) - p0) + p, true
		}
	}
	return 0, false
}

// farPush inserts into the overflow min-heap ordered by (t, seq).
func (w *Wheel[E]) farPush(t int, e E) {
	w.far = append(w.far, farEvent[E]{t, w.farSeq, e})
	w.farSeq++
	i := len(w.far) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !farLess(w.far[i], w.far[p]) {
			break
		}
		w.far[i], w.far[p] = w.far[p], w.far[i]
		i = p
	}
}

// farPop removes and returns the heap minimum.
func (w *Wheel[E]) farPop() farEvent[E] {
	top := w.far[0]
	n := len(w.far) - 1
	w.far[0] = w.far[n]
	w.far[n] = farEvent[E]{} // drop the payload reference
	w.far = w.far[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && farLess(w.far[c+1], w.far[c]) {
			c++
		}
		if !farLess(w.far[c], w.far[i]) {
			break
		}
		w.far[i], w.far[c] = w.far[c], w.far[i]
		i = c
	}
	return top
}

func farLess[E any](a, b farEvent[E]) bool {
	return a.t < b.t || (a.t == b.t && a.seq < b.seq)
}

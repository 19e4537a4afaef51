// Package sim provides the deterministic discrete-event core of the
// simulator: a virtual nanosecond clock and a calendar-queue event core.
//
// The machine model (internal/smp) advances the clock directly while the
// simulated CPU executes a trace, and schedules future work — DMA
// completions, asynchronous I/O completions, prefetch arrivals — as events.
// Events scheduled for the same instant fire in scheduling order (FIFO),
// which keeps runs reproducible.
//
// # Calendar queue
//
// Pending events live in a calendar queue (R. Brown, CACM 1988): a flat
// power-of-two array of buckets, each one "day" of virtual time wide, with
// bucket b holding every event whose day index is congruent to b modulo the
// bucket count. Each bucket keeps its events sorted by (At, seq), so the
// earliest event of the whole queue is always the head of some bucket and
// dequeue walks at most one bucket per empty day. Unlike a binary heap the
// structure never moves events after insertion, the common
// append-at-the-end insert touches one cache line, and the earliest pending
// event is cached so NextEventTime — which the SMP coordinator polls every
// step — is a single load.
//
// The tie-break order is load-bearing and frozen: events with equal At fire
// strictly in scheduling order (ascending seq). Every determinism anchor of
// the repository — machine⇔1-core-SMP equivalence, seeded-fault repeats,
// `itsbench diff` at zero tolerance — depends on same-time completions,
// wake-ups and trace emissions interleaving exactly this way. Equal-At
// events always share a bucket (same day), where they sit in seq order, so
// the calendar preserves the heap's FIFO semantics bit-for-bit.
//
// # Memory discipline
//
// Fired events return to a free list on the Engine and are reused by later
// Schedule calls, so steady-state simulation allocates no event structs.
// Two consequences bind callers: (1) a *Event handle must not be Cancelled
// after its event fired — the struct may already belong to a newer event
// (the executor maintains this by dropping its PendingIO tracking entry in
// the same completion that fires); (2) reading At or Cancelled from a
// handle whose event fired is similarly stale. Cancelled events are NOT
// recycled — Cancel is rare (work-steal re-homing only) and the handle
// stays valid for Cancelled() queries. Hot paths schedule a Handler
// implemented on a long-lived struct instead of a closure, so scheduling
// itself allocates nothing either.
package sim

import (
	"fmt"
	"math"
)

// Time is a virtual timestamp in nanoseconds since the start of a run.
type Time int64

// Common durations, in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String renders the time with an adaptive unit, e.g. "3.000µs".
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Seconds returns the time as a float64 second count.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Handler is the allocation-free alternative to scheduling a closure: a
// long-lived struct implements Fire and is scheduled with ScheduleHandler.
type Handler interface {
	// Fire runs when the clock reaches the event's time.
	Fire(now Time)
}

// Event is a unit of future work: either fn or h runs when the clock
// reaches At.
type Event struct {
	At  Time
	fn  func(now Time)
	h   Handler
	seq uint64 // tie-break: FIFO among equal timestamps
	bkt int32  // bucket index; -1 once popped/recycled, -2 cancelled
}

// Cancelled reports whether the event was removed before firing. Only
// meaningful on a handle whose event has not fired (see the package
// comment's recycling rules).
func (e *Event) Cancelled() bool { return e.bkt == -2 }

// Calendar-queue sizing. The queue is typically small (outstanding device
// completions, wake-ups, at most one gauge tick), so it starts at 8 buckets
// one microsecond wide — the scale of ULL completion spacing — and doubles
// whenever occupancy exceeds two events per bucket, re-estimating the day
// width from the observed event span.
const (
	cqMinBuckets = 8
	cqMaxBuckets = 4096
	cqInitWidth  = Microsecond
)

// Engine owns the virtual clock and the pending-event calendar. The zero
// value is ready to use.
type Engine struct {
	now   Time
	seq   uint64
	fired uint64
	sched uint64

	// The calendar proper: len(buckets) is a power of two, width is the
	// day length, count the number of pending events.
	buckets [][]*Event
	width   Time
	count   int
	// cursor/curTop track the dequeue position: events in buckets[cursor]
	// with At < curTop belong to the current day and fire next. Invariant:
	// no pending event has At < curTop-width.
	cursor int
	curTop Time
	// min caches the earliest pending event (nil = recompute on demand).
	min *Event
	// free holds fired events for reuse.
	free []*Event
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of events not yet fired.
func (e *Engine) Pending() int { return e.count }

// Scheduled returns the total number of events ever scheduled.
func (e *Engine) Scheduled() uint64 { return e.sched }

// Fired returns the total number of events that have run.
func (e *Engine) Fired() uint64 { return e.fired }

// newEvent validates at, takes an event from the free list (or allocates)
// and inserts it into the calendar.
func (e *Engine) newEvent(at Time) *Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	if e.buckets == nil {
		e.buckets = make([][]*Event, cqMinBuckets)
		e.width = cqInitWidth
		e.curTop = e.width
	}
	if e.count >= 2*len(e.buckets) && len(e.buckets) < cqMaxBuckets {
		e.grow()
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &Event{}
	}
	ev.At = at
	ev.seq = e.seq
	e.seq++
	e.sched++
	e.insert(ev)
	return ev
}

// Schedule queues fn to run at absolute time at. Scheduling in the past
// (at < Now) is a programming error and panics: the machine model must never
// generate causality violations. Returns a handle usable with Cancel.
func (e *Engine) Schedule(at Time, fn func(now Time)) *Event {
	ev := e.newEvent(at)
	ev.fn = fn
	ev.h = nil
	return ev
}

// ScheduleHandler queues h.Fire to run at absolute time at — the
// allocation-free form of Schedule for hot paths. Same past-time panic and
// Cancel semantics.
func (e *Engine) ScheduleHandler(at Time, h Handler) *Event {
	ev := e.newEvent(at)
	ev.fn = nil
	ev.h = h
	return ev
}

// ScheduleAfter queues fn to run delay nanoseconds from now.
func (e *Engine) ScheduleAfter(delay Time, fn func(now Time)) *Event {
	if delay < 0 {
		delay = 0
	}
	return e.Schedule(e.now+delay, fn)
}

// bucketOf maps a timestamp to its bucket: day index modulo bucket count.
func (e *Engine) bucketOf(at Time) int {
	return int(uint64(at) / uint64(e.width) & uint64(len(e.buckets)-1))
}

// dayTop returns the exclusive end of at's day, saturating at the far
// future so times near the horizon cannot overflow.
func (e *Engine) dayTop(at Time) Time {
	top := at - at%e.width + e.width
	if top < at {
		return math.MaxInt64
	}
	return top
}

// insert places ev into its bucket keeping (At, seq) order, and repairs the
// cursor and cached minimum.
func (e *Engine) insert(ev *Event) {
	idx := e.bucketOf(ev.At)
	b := e.buckets[idx]
	i := len(b)
	for i > 0 && (b[i-1].At > ev.At || (b[i-1].At == ev.At && b[i-1].seq > ev.seq)) {
		i--
	}
	b = append(b, nil)
	copy(b[i+1:], b[i:])
	b[i] = ev
	e.buckets[idx] = b
	ev.bkt = int32(idx)
	e.count++
	// An event earlier than the cursor's day rewinds the dequeue position;
	// otherwise the no-event-before-cursor-day invariant would break.
	if e.count == 1 || ev.At < e.curTop-e.width {
		e.cursor = idx
		e.curTop = e.dayTop(ev.At)
	}
	if e.min != nil && ev.At < e.min.At {
		e.min = ev
	} else if e.min == nil && e.count == 1 {
		e.min = ev
	}
}

// grow doubles the bucket array, re-estimating the day width from the
// pending events' span, and redistributes. Deterministic: a pure function
// of the queue contents.
func (e *Engine) grow() {
	old := e.buckets
	var evs []*Event
	lo, hi := Time(math.MaxInt64), Time(0)
	for _, b := range old {
		for _, ev := range b {
			evs = append(evs, ev)
			if ev.At < lo {
				lo = ev.At
			}
			if ev.At > hi {
				hi = ev.At
			}
		}
	}
	e.buckets = make([][]*Event, 2*len(old))
	if n := Time(len(evs)); n > 0 {
		if w := (hi - lo) / n; w > e.width {
			e.width = w
		}
	}
	e.count = 0
	e.min = nil
	e.cursor = 0
	e.curTop = e.width
	for _, ev := range evs {
		e.count++
		idx := e.bucketOf(ev.At)
		b := e.buckets[idx]
		i := len(b)
		for i > 0 && (b[i-1].At > ev.At || (b[i-1].At == ev.At && b[i-1].seq > ev.seq)) {
			i--
		}
		b = append(b, nil)
		copy(b[i+1:], b[i:])
		b[i] = ev
		e.buckets[idx] = b
		ev.bkt = int32(idx)
	}
	if len(evs) > 0 {
		e.cursor = e.bucketOf(lo)
		e.curTop = e.dayTop(lo)
	}
}

// findMin returns the earliest pending event (caching it), or nil when the
// queue is empty. The walk visits at most one full year of days before
// falling back to a direct scan of the bucket heads (the sparse-queue
// case), after which the cursor is re-seated at the found event's day.
func (e *Engine) findMin() *Event {
	if e.min != nil {
		return e.min
	}
	if e.count == 0 {
		return nil
	}
	n := len(e.buckets)
	for i := 0; i < n; i++ {
		b := e.buckets[e.cursor]
		if len(b) > 0 && b[0].At < e.curTop {
			e.min = b[0]
			return b[0]
		}
		e.cursor++
		if e.cursor == n {
			e.cursor = 0
		}
		if e.curTop > math.MaxInt64-e.width {
			e.curTop = math.MaxInt64
		} else {
			e.curTop += e.width
		}
	}
	var best *Event
	for _, b := range e.buckets {
		if len(b) == 0 {
			continue
		}
		h := b[0]
		if best == nil || h.At < best.At || (h.At == best.At && h.seq < best.seq) {
			best = h
		}
	}
	e.cursor = e.bucketOf(best.At)
	e.curTop = e.dayTop(best.At)
	e.min = best
	return best
}

// remove unlinks ev from its bucket (order-preserving).
func (e *Engine) remove(ev *Event) {
	idx := int(ev.bkt)
	b := e.buckets[idx]
	for i, q := range b {
		if q == ev {
			copy(b[i:], b[i+1:])
			b[len(b)-1] = nil
			e.buckets[idx] = b[:len(b)-1]
			break
		}
	}
	e.count--
	if e.min == ev {
		e.min = nil
	}
}

// Cancel removes a pending event so it never fires. Cancelling an event that
// was already cancelled is a no-op returning false — as is cancelling a
// handle whose event fired and was not yet reused, but holding a handle
// past its fire time is a caller bug (the struct is recycled; see the
// package comment).
func (e *Engine) Cancel(ev *Event) bool {
	if ev == nil || ev.bkt < 0 {
		return false
	}
	e.remove(ev)
	ev.bkt = -2
	return true
}

// NextEventTime returns the timestamp of the earliest pending event and true,
// or (0, false) when the queue is empty.
func (e *Engine) NextEventTime() (Time, bool) {
	ev := e.findMin()
	if ev == nil {
		return 0, false
	}
	return ev.At, true
}

// Advance moves the clock forward by d without firing events. It panics if
// d is negative. Events that fall inside the skipped window remain pending;
// callers that need them processed use AdvanceTo/RunUntil instead. This is
// the fast path used while the CPU burns through compute gaps with no device
// activity outstanding.
func (e *Engine) Advance(d Time) {
	if d < 0 {
		panic("sim: negative Advance")
	}
	e.now += d
}

// AdvanceTo moves the clock to t (>= now), firing every event with At <= t in
// order. Event functions may schedule further events; those are honoured if
// they also fall at or before t.
func (e *Engine) AdvanceTo(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: AdvanceTo(%v) before now %v", t, e.now))
	}
	for {
		ev := e.findMin()
		if ev == nil || ev.At > t {
			break
		}
		e.fire(ev)
	}
	if e.now < t {
		e.now = t
	}
}

// RunUntilIdle fires events in timestamp order until the queue is empty.
func (e *Engine) RunUntilIdle() {
	for {
		ev := e.findMin()
		if ev == nil {
			break
		}
		e.fire(ev)
	}
}

// StepOne fires exactly the earliest pending event (advancing the clock to
// it) and reports whether an event was fired.
func (e *Engine) StepOne() bool {
	ev := e.findMin()
	if ev == nil {
		return false
	}
	e.fire(ev)
	return true
}

// fire pops ev (the cached minimum), advances the clock, recycles the
// struct and runs the payload. The payload is read out before recycling so
// the event it schedules next may legally reuse the same struct.
func (e *Engine) fire(ev *Event) {
	e.remove(ev)
	if ev.At > e.now {
		e.now = ev.At
	}
	e.fired++
	fn, h := ev.fn, ev.h
	ev.fn = nil
	ev.h = nil
	ev.bkt = -1
	e.free = append(e.free, ev)
	if h != nil {
		h.Fire(e.now)
	} else {
		fn(e.now)
	}
}

// Package sim is the deterministic discrete-event core the simulator layers
// (disksim, raid, dtm, trace) share: a monotonic clock, a binary-heap event
// queue, and the Source/Sink/Process plumbing that lets workload generation,
// disk service and thermal control interleave on one timeline without ever
// materializing a whole trace.
//
// Determinism contract: events fire in (time, scheduling order). Two events
// scheduled for the same instant fire in the order they were scheduled, so a
// seeded run replays bit-for-bit regardless of queue rebalancing. Handlers
// run to completion before the next event fires (single-threaded; an Engine
// is not safe for concurrent use).
package sim

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/obs"
)

// ErrStopped is returned by Run when a handler called Stop.
var ErrStopped = errors.New("sim: engine stopped")

// event is one scheduled callback.
type event struct {
	at  time.Duration
	seq uint64 // tie-break: scheduling order
	fn  func(*Engine)
}

// before is the heap order: (at, seq). seq is unique, so the order is total
// and every correct heap pops the identical sequence — the determinism
// contract does not depend on the heap's internal layout.
func (a event) before(b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is the event loop: a clock that only moves forward and a queue of
// pending events. The zero value is not usable; call NewEngine.
//
// The queue is a hand-rolled binary min-heap on a plain slice rather than
// container/heap: the standard interface boxes every Push/Pop element into
// an `any`, which cost two heap allocations per event and made the queue the
// largest allocation site on the streaming request path. The slice-backed
// heap admits and pops events with zero per-event allocations (growth is
// amortized by append), and the streaming runners' one-admission-in-flight
// pattern keeps it nearly empty, so a same-tick or later event's sift-up
// terminates after a single comparison.
type Engine struct {
	now     time.Duration
	seq     uint64
	queue   []event
	err     error
	stopped bool
	tracer  *obs.Tracer
	ctx     context.Context
	done    <-chan struct{} // ctx.Done(); nil when the run cannot be cancelled
}

// NewEngine returns an engine with its clock at zero.
func NewEngine() *Engine { return &Engine{} }

// SetTracer attaches a span collector to the engine. Processes running on
// the engine (disk service, RAID fan-out, DTM control) consult Tracer per
// event and record request-lifetime spans when it is non-nil; with no
// tracer attached the check is a single nil branch and nothing allocates.
func (e *Engine) SetTracer(t *obs.Tracer) { e.tracer = t }

// Tracer returns the attached span collector (nil when tracing is off).
func (e *Engine) Tracer() *obs.Tracer { return e.tracer }

// SetContext binds the run to ctx: once ctx is done, Step fails the run
// with ctx.Err() instead of firing the next event, so every process on the
// engine stops at its next event. A context that can never be cancelled
// (context.Background) has a nil Done channel, and the per-event check is
// then a single nil branch.
func (e *Engine) SetContext(ctx context.Context) {
	e.ctx, e.done = ctx, ctx.Done()
}

// Now returns the current simulation time.
func (e *Engine) Now() time.Duration { return e.now }

// Pending returns how many events are queued.
func (e *Engine) Pending() int { return len(e.queue) }

// At schedules fn for time at. Scheduling into the past is clamped to the
// current instant (the event still fires after every event already queued
// for Now, preserving the determinism contract).
func (e *Engine) At(at time.Duration, fn func(*Engine)) {
	if at < e.now {
		at = e.now
	}
	e.queue = append(e.queue, event{at: at, seq: e.seq, fn: fn})
	e.seq++
	e.siftUp(len(e.queue) - 1)
}

// After schedules fn d from now (negative d fires at the current instant).
func (e *Engine) After(d time.Duration, fn func(*Engine)) { e.At(e.now+d, fn) }

// siftUp restores the heap property after an append at index i.
func (e *Engine) siftUp(i int) {
	q := e.queue
	ev := q[i]
	for i > 0 {
		p := (i - 1) / 2
		if q[p].before(ev) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
}

// pop removes and returns the minimum event. Callers guarantee the queue is
// non-empty. The vacated slot's fn is cleared so the GC can reclaim the
// handler once it has run.
func (e *Engine) pop() event {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{}
	e.queue = q[:n]
	if n > 0 {
		e.siftDown(last)
	}
	return top
}

// siftDown re-inserts ev at the root of the shrunk heap.
func (e *Engine) siftDown(ev event) {
	q := e.queue
	n := len(q)
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(q[c]) {
			c = r
		}
		if !q[c].before(ev) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = ev
}

// Fail aborts the run: Run returns err once the current handler finishes.
func (e *Engine) Fail(err error) {
	if e.err == nil {
		e.err = err
	}
	e.stopped = true
}

// Stop ends the run without error once the current handler finishes.
func (e *Engine) Stop() { e.stopped = true }

// Step fires the next event. It reports whether one fired; it fires none,
// and fails the run with ctx.Err(), once the bound context is done.
func (e *Engine) Step() bool {
	if e.stopped || len(e.queue) == 0 {
		return false
	}
	if e.done != nil {
		select {
		case <-e.done:
			e.Fail(e.ctx.Err())
			return false
		default:
		}
	}
	ev := e.pop()
	if ev.at > e.now {
		e.now = ev.at
	}
	ev.fn(e)
	return true
}

// Run fires events until the queue drains, a handler calls Stop, a
// handler calls Fail (whose error is returned), or the context bound with
// SetContext is done (ctx.Err() is returned).
func (e *Engine) Run() error {
	for e.Step() {
	}
	if e.err != nil {
		return e.err
	}
	if e.stopped {
		e.stopped = false // allow resumption after an explicit Stop
		return nil
	}
	return nil
}

// Process is a component that attaches itself to the engine — typically by
// scheduling its first event (a sample tick, a request arrival) from Start.
type Process interface {
	Start(*Engine)
}

// Every schedules fn at t0 and then every period until fn returns false.
// It panics on a non-positive period (a zero period would jam the clock).
func (e *Engine) Every(t0, period time.Duration, fn func(now time.Duration) bool) {
	if period <= 0 {
		panic(fmt.Sprintf("sim: non-positive tick period %v", period))
	}
	var tick func(*Engine)
	tick = func(eng *Engine) {
		if !fn(eng.Now()) {
			return
		}
		eng.After(period, tick)
	}
	e.At(t0, tick)
}

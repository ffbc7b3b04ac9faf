package disksim

import (
	"context"
	"fmt"
	"time"

	"repro/internal/sim"
)

// RunStream drives the disk from a lazily-yielded FCFS request stream on an
// event engine: each request is admitted as an arrival event, serviced via
// Serve (all FaultInjector hooks intact), and its completion pushed to sink;
// only then is the next request pulled, so memory stays O(1) in trace
// length. The source must yield requests in nondecreasing arrival order —
// the order Simulate establishes by sorting and the trace generators emit
// natively.
//
// RunStream schedules onto eng and runs it to completion. Passing a shared
// engine interleaves this disk's admissions with other processes (thermal
// sample ticks, other disks) on one deterministic clock.
func (d *Disk) RunStream(eng *sim.Engine, src sim.Source[Request], sink sim.Sink[Completion]) error {
	if eng == nil {
		eng = sim.NewEngine()
	}
	s := &diskStream{d: d, src: src, sink: sink}
	s.fire = s.serve // one event closure for the whole run, not one per request
	s.admit(eng)
	if err := eng.Run(); err != nil {
		return err
	}
	return s.failed
}

// diskStream is RunStream's admission state: one struct and one pre-bound
// event closure for the whole run. Only one admission is outstanding at a
// time, so the single in-flight request slot suffices and the per-request
// path allocates nothing.
type diskStream struct {
	d      *Disk
	src    sim.Source[Request]
	sink   sim.Sink[Completion]
	r      Request // the in-flight request, valid between admit and serve
	failed error
	fire   func(*sim.Engine)
}

func (s *diskStream) admit(e *sim.Engine) {
	r, ok := s.src.Next()
	if !ok {
		return
	}
	s.r = r
	e.At(r.Arrival, s.fire)
}

func (s *diskStream) serve(e *sim.Engine) {
	var c Completion
	if err := s.d.ServeInto(&c, s.r); err != nil {
		s.failed = err
		e.Fail(err)
		return
	}
	recordSpan(e.Tracer(), &c)
	s.sink.Push(c)
	s.admit(e)
}

// RunStreamCtx is RunStream with cooperative cancellation: the source is
// gated on ctx (checked at every admission) and a cancelled run reports
// ctx.Err() instead of a partial-looking success, matching the other
// streaming runners' contract for the serving layer.
func (d *Disk) RunStreamCtx(ctx context.Context, eng *sim.Engine, src sim.Source[Request], sink sim.Sink[Completion]) error {
	if err := d.RunStream(eng, sim.Gate(ctx, src), sink); err != nil {
		return err
	}
	return ctx.Err()
}

// Simulate services a batch of requests under the configured scheduler and
// returns their completions in service order. It is the collect-into-slice
// wrapper over the streaming path: FCFS sorts the batch by arrival and
// replays it through RunStream; the queue-reordering disciplines
// (SSTF/SPTF/LOOK) keep a pending set and are serviced by the batch picker.
func (d *Disk) Simulate(reqs []Request) ([]Completion, error) {
	sorted := sortedByArrival(reqs)
	if d.cfg.Scheduler != FCFS {
		return d.simulateQueued(sorted)
	}
	out := make([]Completion, 0, len(sorted))
	var collect sim.Appender[Completion]
	collect.Items = out
	if err := d.RunStream(sim.NewEngine(), sim.FromSlice(sorted), &collect); err != nil {
		return nil, err
	}
	return collect.Items, nil
}

// Scheduler returns the configured queueing discipline.
func (d *Disk) Scheduler() Scheduler { return d.cfg.Scheduler }

// sortedByArrival returns a stably arrival-sorted copy.
func sortedByArrival(reqs []Request) []Request {
	sorted := make([]Request, len(reqs))
	copy(sorted, reqs)
	stableSortByArrival(sorted)
	return sorted
}

// ReadySource adapts a request source so each yielded request's arrival is
// clamped to at least the previous yield — a guard for hand-built sources
// that are only approximately sorted. Exactly-sorted sources pass through
// untouched.
func ReadySource(src sim.Source[Request]) sim.Source[Request] {
	var floor time.Duration
	return sim.SourceFunc[Request](func() (Request, bool) {
		r, ok := src.Next()
		if !ok {
			return r, false
		}
		if r.Arrival < floor {
			r.Arrival = floor
		}
		floor = r.Arrival
		return r, true
	})
}

// StreamStats is a Sink that summarises completions without retaining them:
// the O(1)-memory counterpart of collecting into a slice.
type StreamStats struct {
	N         int64
	CacheHits int64
	Retries   int64
	Remaps    int64
	LastDone  time.Duration
}

// Push implements sim.Sink.
func (s *StreamStats) Push(c Completion) {
	s.N++
	if c.CacheHit {
		s.CacheHits++
	}
	s.Retries += int64(c.Retries)
	if c.Remapped {
		s.Remaps++
	}
	if c.Finish > s.LastDone {
		s.LastDone = c.Finish
	}
}

// String implements fmt.Stringer.
func (s *StreamStats) String() string {
	return fmt.Sprintf("%d served (%d cache hits, %d retries, %d remaps), last done %v",
		s.N, s.CacheHits, s.Retries, s.Remaps, s.LastDone)
}

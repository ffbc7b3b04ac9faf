package disksim

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// RunStream drives the disk from a lazily-yielded FCFS request stream on an
// event engine: each request is admitted as an arrival event, serviced via
// ServeInto (all FaultInjector hooks intact), and its completion pushed to
// sink; only then is the next request pulled, so memory stays O(1) in trace
// length. The source must yield requests in nondecreasing arrival order —
// the order Simulate establishes by sorting and the trace generators emit
// natively; an out-of-order arrival fails the run with sim.ErrOutOfOrder.
// A disk configured with a reordering scheduler is refused: only Simulate
// holds the pending set those disciplines pick from.
//
// RunStream schedules onto eng and runs it to completion. Passing a shared
// engine interleaves this disk's admissions with other processes (thermal
// sample ticks, other disks) on one deterministic clock; a context bound
// with eng.SetContext cancels the run at its next event.
func (d *Disk) RunStream(eng *sim.Engine, src sim.Source[Request], sink sim.Sink[Completion]) error {
	if d.cfg.Scheduler != FCFS {
		return fmt.Errorf("disksim: RunStream serves FCFS; the %v scheduler runs only through Simulate", d.cfg.Scheduler)
	}
	if eng == nil {
		eng = sim.NewEngine()
	}
	sim.Chain(eng, src, func(r Request) time.Duration { return r.Arrival }, func(e *sim.Engine, r Request) bool {
		var c Completion
		if err := d.ServeInto(&c, r); err != nil {
			e.Fail(err)
			return false
		}
		recordSpan(e.Tracer(), &c)
		sink.Push(c)
		return true
	}, nil)
	return eng.Run()
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

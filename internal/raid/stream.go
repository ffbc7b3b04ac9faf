package raid

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/disksim"
	"repro/internal/sim"
)

// Serve services one volume request immediately: it fans the request out to
// its member-disk I/Os and services each in mapping order (each member's
// FCFS queue advances independently; the slowest constituent determines the
// finish). This is the event-loop unit of work — RunStream admits one Serve
// per arrival event.
func (v *Volume) Serve(r Request) (Completion, error) {
	var c Completion
	if err := v.serveInto(&c, r); err != nil {
		return Completion{}, err
	}
	return c, nil
}

// serveInto is Serve writing into a caller-owned completion; member disks
// write theirs into the volume's scratch slot, so no Completion is copied
// per sub-request. After an error *c is unspecified.
func (v *Volume) serveInto(c *Completion, r Request) error {
	subs, err := v.mapRequest(r)
	if err != nil {
		return err
	}
	// Cleared, then filled in place: a composite literal would be built on
	// the stack and copied into *c.
	*c = Completion{}
	c.Request = r
	c.SubRequests = len(subs)
	c.SlowestDisk = -1
	comp := &v.subDone
	for i := range subs {
		sb := &subs[i]
		if err := v.disks[sb.disk].ServeInto(comp, sb.req); err != nil {
			return err
		}
		// Deterministic slowest-sub pick: max finish, ties to the lowest
		// member index (the order the batch join always scanned disks in).
		if c.SlowestDisk < 0 || comp.Finish > c.Finish ||
			(comp.Finish == c.Finish && sb.disk < c.SlowestDisk) {
			c.Finish = comp.Finish
			c.Parts = comp.Parts
			c.SlowestDisk = sb.disk
		}
		if comp.CacheHit {
			c.CacheHits++
		}
	}
	if v.writeBack > 0 && r.Write {
		c.Finish = r.Arrival + v.writeBack
	}
	v.ins.record(c)
	return nil
}

// RunStream services volume requests pulled lazily from src, pushing each
// completion to sink as it happens: memory stays O(1) in trace length. The
// source must yield requests in nondecreasing arrival order (the trace
// generators do); an out-of-order arrival aborts the run.
//
// Requests are admitted as engine events at their arrival times, so sharing
// eng with other processes (DTM sample ticks, a second volume) interleaves
// them deterministically on one clock.
func (v *Volume) RunStream(eng *sim.Engine, src sim.Source[Request], sink sim.Sink[Completion]) error {
	if eng == nil {
		eng = sim.NewEngine()
	}
	s := &volumeStream{v: v, src: src, sink: sink, last: -1}
	s.fire = s.serve // one event closure for the whole run, not one per request
	s.admit(eng)
	if err := eng.Run(); err != nil {
		return err
	}
	return s.failed
}

// volumeStream is RunStream's admission state. One struct and one pre-bound
// event closure carry the entire run — only one admission is outstanding at
// a time (the next request is pulled after the previous one is served), so
// the single in-flight request slot suffices and the per-request path
// allocates nothing.
type volumeStream struct {
	v      *Volume
	src    sim.Source[Request]
	sink   sim.Sink[Completion]
	r      Request // the in-flight request, valid between admit and serve
	last   time.Duration
	failed error
	fire   func(*sim.Engine)
}

func (s *volumeStream) admit(e *sim.Engine) {
	r, ok := s.src.Next()
	if !ok {
		return
	}
	if r.Arrival < s.last {
		s.failed = fmt.Errorf("raid: stream out of order: request %d arrives at %v after %v",
			r.ID, r.Arrival, s.last)
		e.Fail(s.failed)
		return
	}
	s.last = r.Arrival
	s.r = r
	e.At(r.Arrival, s.fire)
}

func (s *volumeStream) serve(e *sim.Engine) {
	var c Completion
	if err := s.v.serveInto(&c, s.r); err != nil {
		s.failed = err
		e.Fail(err)
		return
	}
	recordSpan(e.Tracer(), &c)
	s.sink.Push(c)
	s.admit(e)
}

// RunStreamCtx is RunStream with cooperative cancellation: the source is
// gated on ctx, so a cancelled context ends the replay at the next request
// admission, and the cancellation is reported as ctx.Err() rather than a
// silently-short run. The serving layer's job cancellation rides on this.
func (v *Volume) RunStreamCtx(ctx context.Context, eng *sim.Engine, src sim.Source[Request], sink sim.Sink[Completion]) error {
	if err := v.RunStream(eng, sim.Gate(ctx, src), sink); err != nil {
		return err
	}
	return ctx.Err()
}

// Simulate runs a volume-level workload and returns completions sorted by
// request arrival. It is the collect-into-slice wrapper over RunStream: the
// batch is stably sorted by arrival and replayed through the event engine.
// Member disks configured with a reordering scheduler (SSTF/SPTF/LOOK) fall
// back to the per-disk batch picker, which needs the whole sub-request
// queue at once.
func (v *Volume) Simulate(reqs []Request) ([]Completion, error) {
	for _, d := range v.disks {
		if d.Scheduler() != disksim.FCFS {
			return v.SimulateBatch(reqs)
		}
	}
	sorted := make([]Request, len(reqs))
	copy(sorted, reqs)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Arrival < sorted[j].Arrival })

	out := make([]Completion, 0, len(sorted))
	err := v.RunStream(sim.NewEngine(), sim.FromSlice(sorted),
		sim.SinkFunc[Completion](func(c Completion) { out = append(out, c) }))
	if err != nil {
		return nil, err
	}
	// Historic output order: arrival, then ID.
	sort.Slice(out, func(i, j int) bool {
		if out[i].Request.Arrival != out[j].Request.Arrival {
			return out[i].Request.Arrival < out[j].Request.Arrival
		}
		return out[i].Request.ID < out[j].Request.ID
	})
	return out, nil
}

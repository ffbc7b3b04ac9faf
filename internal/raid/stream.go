package raid

import (
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
	if _, err := v.join(c, subs); err != nil {
		return err
	}
	if v.writeBack > 0 && r.Write {
		c.Finish = r.Arrival + v.writeBack
	}
	v.ins.record(c)
	return nil
}

// join services subs on their members in mapping order (each member's
// FCFS queue advances independently) and folds them into c: the slowest
// sub sets Finish, Parts and SlowestDisk, and member cache hits add to
// CacheHits. The pick is deterministic — max finish, ties to the lowest
// member index, the order the batch join scans disks in. A member error
// stops the join and returns that member's index with the error.
func (v *Volume) join(c *Completion, subs []sub) (failedDisk int, err error) {
	c.SlowestDisk = -1
	comp := &v.subDone
	for i := range subs {
		sb := &subs[i]
		if err := v.disks[sb.disk].ServeInto(comp, sb.req); err != nil {
			return sb.disk, err
		}
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
	return -1, nil
}

// RunStream services volume requests pulled lazily from src, pushing each
// completion to sink as it happens: memory stays O(1) in trace length. The
// source must yield requests in nondecreasing arrival order (the trace
// generators do); an out-of-order arrival fails the run with
// sim.ErrOutOfOrder. Members configured with a reordering scheduler are
// refused: only Simulate honours those.
//
// Requests are admitted as engine events at their arrival times, so sharing
// eng with other processes (DTM sample ticks, a second volume) interleaves
// them deterministically on one clock; a context bound with
// eng.SetContext cancels the run at its next event.
func (v *Volume) RunStream(eng *sim.Engine, src sim.Source[Request], sink sim.Sink[Completion]) error {
	if err := fcfsOnly("member", v.disks); err != nil {
		return err
	}
	if eng == nil {
		eng = sim.NewEngine()
	}
	sim.Chain(eng, src, arrival, func(e *sim.Engine, r Request) bool {
		var c Completion
		if err := v.serveInto(&c, r); err != nil {
			e.Fail(err)
			return false
		}
		recordSpan(e.Tracer(), &c)
		sink.Push(c)
		return true
	}, nil)
	return eng.Run()
}

// arrival is a request's admission time on the engine clock.
func arrival(r Request) time.Duration { return r.Arrival }

// fcfsOnly refuses disks with a reordering scheduler: the streaming
// runners serve each disk FCFS, one request at a time, so only the batch
// picker behind Simulate can honour SSTF, SPTF or LOOK. role names the
// disks in the error ("member", "spare").
func fcfsOnly(role string, disks []*disksim.Disk) error {
	for i, d := range disks {
		if s := d.Scheduler(); s != disksim.FCFS {
			return fmt.Errorf("raid: %s %d uses the %v scheduler, which only Simulate honours; streaming runs serve FCFS", role, i, s)
		}
	}
	return nil
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

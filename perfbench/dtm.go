package main

import (
	"time"

	"repro/internal/capacity"
	"repro/internal/disksim"
	"repro/internal/dtm"
	"repro/internal/scaling"
	"repro/internal/sim"
	"repro/internal/thermal"
	"repro/internal/units"
)

// dtm-predictive: dtm.PredictiveController.RunStream on one hot 24,534-RPM
// disk with random 8-sector I/O (30% writes). It loads the thermal
// transient and the dtm predictor; RAID is untouched. At 120 req/s the
// disk stays saturated by the backlog each pause leaves, so both the
// predictive and the reactive stage keep firing for the whole replay, not
// only after the warm start.

const (
	dtmRPM       units.RPM = 24534
	dtmRate                = 120.0 // arrivals per simulated second
	dtmInputs              = 4
	dtmWarmBelow           = 4 // warm start this far below the envelope, C
)

type dtmBench struct {
	seeds []int64
	ref   []dtmOut
	n     int
	total int64 // disk sectors
}

// dtmOut is one controller run's result and a digest of its completions.
type dtmOut struct {
	res     dtm.PredictiveResult
	digest  digest
	count   int
	corrupt corruption
}

func (d *dtmOut) add(c disksim.Completion) {
	switch d.corrupt {
	case corruptDrop:
		d.corrupt = corruptNone
		return
	case corruptAlter:
		d.corrupt = corruptNone
		c.Finish++ // the count stays right
	}
	d.count++
	d.digest.add(uint64(c.Request.ID), uint64(c.Start), uint64(c.Finish))
}

// dtmDisk builds the set-up every dtm job starts from: a fresh disk, a
// fresh thermal model (empty memo tables) and the warm start state.
func dtmDisk() (*disksim.Disk, *thermal.Model, thermal.State, error) {
	geom := thermal.ReferenceDrive
	bpi, tpi := scaling.DefaultTrend().Densities(2005)
	layout, err := capacity.New(capacity.Config{Geometry: geom, BPI: bpi, TPI: tpi, Zones: 50})
	if err != nil {
		return nil, nil, thermal.State{}, err
	}
	disk, err := disksim.New(disksim.Config{Layout: layout, RPM: dtmRPM})
	if err != nil {
		return nil, nil, thermal.State{}, err
	}
	th, err := thermal.New(geom)
	if err != nil {
		return nil, nil, thermal.State{}, err
	}
	warm := th.SteadyState(thermal.WorstCase(dtmRPM))
	warm.Air = thermal.Envelope - dtmWarmBelow
	return disk, th, warm, nil
}

func newDTMBench(o options) (*dtmBench, error) {
	disk, _, _, err := dtmDisk()
	if err != nil {
		return nil, err
	}
	b := &dtmBench{n: 200_000, total: disk.Layout().TotalSectors()}
	if o.small {
		b.n = 2_000
	}
	for k := 0; k < dtmInputs; k++ {
		b.seeds = append(b.seeds, splitmix(o.seed, k))
	}
	return b, nil
}

func (b *dtmBench) source(k int) sim.Source[disksim.Request] {
	return dtm.SyntheticSource(b.total, b.n, dtmRate, b.seeds[k])
}

// replay runs the predictive controller over input k from a fresh set-up.
func (b *dtmBench) replay(k int, corrupt corruption, spans *streamSpans) (dtmOut, *thermal.Model, error) {
	disk, th, warm, err := dtmDisk()
	if err != nil {
		return dtmOut{}, nil, err
	}
	out := dtmOut{corrupt: corrupt}
	src := b.source(k)
	var sink sim.Sink[disksim.Completion] = sim.SinkFunc[disksim.Completion](out.add)
	if spans != nil {
		src = &spanSource[disksim.Request]{src: src, span: &spans.next}
		sink = &spanSink[disksim.Completion]{sink: sink, span: &spans.push}
	}
	ctl := dtm.PredictiveController{Disk: disk, Thermal: th, Mode: dtm.VCMOnly, Initial: &warm}
	out.res, err = ctl.RunStream(sim.NewEngine(), src, sink)
	return out, th, err
}

func (b *dtmBench) ok(out dtmOut) bool {
	res := out.res
	return out.count == b.n && finite(res.MeanResponseMillis, res.P95ResponseMillis,
		float64(res.MaxAirTemp), res.MeanAbsPredErrC, res.ThrottledTime.Seconds(), res.Elapsed.Seconds())
}

func (b *dtmBench) warm(r *report) error {
	for k := range b.seeds {
		out, _, err := b.replay(k, corruptNone, nil)
		if err != nil {
			return err
		}
		r.check(b.ok(out), "dtm-predictive warm-up input %d: %d of %d completions, result %+v", k, out.count, b.n, out.res)
		b.ref = append(b.ref, out)
	}
	return nil
}

// job replays input i%dtmInputs, checks it, and returns the job's thermal
// model (nil when the replay failed).
func (b *dtmBench) job(o options, r *report, i int, spans *streamSpans) *thermal.Model {
	k := i % len(b.seeds)
	out, th, err := b.replay(k, o.corrupt, spans)
	if err != nil {
		r.fail(err)
		return nil
	}
	r.check(b.ok(out) && out.digest == b.ref[k].digest,
		"dtm-predictive input %d: %d of %d completions, digest %x want %x", k, out.count, b.n, out.digest, b.ref[k].digest)
	return th
}

// dtmLedger is dtm-predictive's part of the traced run: traced controller
// runs, then direct loops over input 0 for the disk, the thermal
// transient, the steady-state solver and the predictor. dtm-predictive is
// never the traced run's own workload, so there is no untraced job to
// compare against.
func dtmLedger(o options, r *report, _ bool) error {
	b, err := newDTMBench(o)
	if err != nil {
		return err
	}
	if err := b.warm(r); err != nil {
		return err
	}
	var spans streamSpans
	var memoHits, memoLookups int64
	traced := jobLoop(o.budget*6/10, 1, func(i int) {
		if th := b.job(o, r, i, &spans); th != nil {
			s := th.CacheStats()
			memoHits += s.SteadyHits + s.CondHits
			memoLookups += s.SteadyHits + s.CondHits + s.SteadyMisses + s.CondMisses
		}
	})
	tracedNs := nsPerOp(traced, b.n)
	// The controller's own cost per request: the traced run's self time,
	// less its source and sink spans.
	r.set("dtm.run_ns", tracedNs-spans.next.mean()-spans.push.mean(), "ns")
	// The job's thermal memo tables, steady solves and transient
	// conductances together, start empty in every job.
	r.set("thermal.memo_hit_ratio", float64(memoHits)/float64(memoLookups), "ratio")

	reqs := sim.Collect(b.source(0))
	loop := o.budget * 4 / 10 / 4
	serve, err := medianTime(loop, 2, 50, func() error {
		disk, _, _, err := dtmDisk()
		if err != nil {
			return err
		}
		for _, q := range reqs {
			if _, err := disk.Serve(q); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.set("disksim.serve_ns", serve*1e9/float64(len(reqs)), "ns")

	// The transient over the inter-arrival gaps under the busy load, which
	// also yields the temperature trace the predictor loop replays.
	_, th, warm, err := dtmDisk()
	if err != nil {
		return err
	}
	busy := thermal.WorstCase(dtmRPM)
	temps := make([]units.Celsius, len(reqs))
	advance, err := medianTime(loop, 2, 50, func() error {
		tr := th.NewTransient(warm)
		prev := time.Duration(0)
		for i, q := range reqs {
			tr.Advance(busy, q.Arrival-prev)
			prev = q.Arrival
			temps[i] = tr.State().Air
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.set("thermal.advance_ns", advance*1e9/float64(len(reqs)), "ns")

	// A full steady-state solve: the memo is off, as on a cache miss.
	solver, err := thermal.New(thermal.ReferenceDrive)
	if err != nil {
		return err
	}
	solver.NoCache = true
	steady, err := medianTime(loop, 5, 5000, func() error {
		solver.SteadyState(busy)
		return nil
	})
	if err != nil {
		return err
	}
	r.set("thermal.steady_ns", steady*1e9, "ns")

	predict, err := medianTime(loop, 2, 200, func() error {
		p := dtm.NewPredictor(8)
		for i, q := range reqs {
			p.Observe(q.Arrival, temps[i])
			p.TimeToLimit(thermal.Envelope)
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.set("dtm.predictor_ns", predict*1e9/float64(len(reqs)), "ns")

	var early, reactive, throttled float64
	for _, out := range b.ref {
		early += float64(out.res.EarlyThrottles) / float64(len(b.ref))
		reactive += float64(out.res.ReactiveThrottles) / float64(len(b.ref))
		throttled += out.res.ThrottledTime.Seconds() / float64(len(b.ref))
	}
	r.set("dtm.early_throttles", early, "count")
	r.set("dtm.reactive_throttles", reactive, "count")
	r.set("dtm.sim_throttled_s", throttled, "s")
	return nil
}

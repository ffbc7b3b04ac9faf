package core

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/raid"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/units"
)

// Figure4Steps returns the paper's RPM sweep for a workload: the baseline
// plus three 5,000 RPM increments (TPC-H thus runs 7200/12200/17200/22200).
func Figure4Steps(base units.RPM) []units.RPM {
	return []units.RPM{base, base + 5000, base + 10000, base + 15000}
}

// RPMStep is one workload/RPM cell of Figure 4.
type RPMStep struct {
	RPM units.RPM

	// MeanMillis is the mean response time.
	MeanMillis float64

	// CDF is the cumulative response-time distribution over
	// stats.Figure4Buckets (plus the final 200+ entry).
	CDF []float64

	// P95Millis is the 95th-percentile response time: a P² estimate, or
	// the exact order statistic with Figure4Config.ExactP95.
	P95Millis float64

	// CacheHitFraction is the share of disk requests served from cache.
	CacheHitFraction float64
}

// WorkloadResult is one Figure 4 panel.
type WorkloadResult struct {
	Workload trace.Params
	Steps    []RPMStep
}

// Improvements returns the relative mean-response-time reduction of each
// faster step versus the baseline.
func (r WorkloadResult) Improvements() []float64 {
	if len(r.Steps) == 0 {
		return nil
	}
	base := r.Steps[0].MeanMillis
	out := make([]float64, len(r.Steps)-1)
	for i, s := range r.Steps[1:] {
		out[i] = stats.Improvement(base, s.MeanMillis)
	}
	return out
}

// Observe carries the optional observability sinks for a sweep. The zero
// value disables everything: a nil Registry hands out nil metric handles and
// a nil Tracer makes every Record a single branch, so the un-observed sweep
// is bit- and allocation-identical to the pre-observability code.
type Observe struct {
	// Registry receives per-step metric series, labelled
	// {workload=<name>, rpm=<step>}. Those labels make each gauge
	// single-writer and each counter commutative, which is what keeps
	// snapshots byte-identical at any -workers count.
	Registry *obs.Registry

	// Tracer receives request-lifetime spans. Each step records into a
	// private sub-tracer; the runner merges them in step order after the
	// parallel fan-in, so span output is deterministic too.
	Tracer *obs.Tracer

	// SpanLimit caps the spans each step retains (0 = obs.DefaultSpanLimit).
	// Overflow is counted, not kept, bounding memory on long replays.
	SpanLimit int
}

// subTracer returns a private tracer for one workload or step to record
// into, or nil when no Tracer is attached.
func (o Observe) subTracer() *obs.Tracer {
	if o.Tracer == nil {
		return nil
	}
	limit := o.SpanLimit
	if limit <= 0 {
		limit = obs.DefaultSpanLimit
	}
	return obs.NewTracer(limit)
}

// Figure4Config shapes a Figure 4 sweep. The zero value runs each
// workload's paper sweep on every core with no sinks attached.
type Figure4Config struct {
	// Steps replaces every workload's RPM sweep (empty = Figure4Steps of
	// the workload's baseline).
	Steps []units.RPM

	// Workers bounds the fan-out over workloads and over the steps inside
	// each (<= 0 uses parallel.Default(); 1 is sequential). Every worker
	// count produces bit-identical results.
	Workers int

	// Obs carries the optional metric and span sinks.
	Obs Observe

	// OnStep, when non-nil, receives each completed step in sweep order
	// (workload by workload, step by step) as soon as it and every
	// earlier step have finished, so a serving layer can stream partial
	// results while later steps still run. Pushes are serialized.
	OnStep sim.Sink[RPMStep]

	// ExactP95 keeps every response time of a step for the exact 95th
	// percentile (O(requests) memory) instead of the O(1) P² estimate.
	// The other fields do not change.
	ExactP95 bool
}

// stepsFor resolves the RPM sweep for one workload.
func (c Figure4Config) stepsFor(w trace.Params) []units.RPM {
	if len(c.Steps) > 0 {
		return c.Steps
	}
	return Figure4Steps(w.BaselineRPM)
}

// Figure4 replays each workload across its RPM sweep and returns one panel
// per workload, in input order. Every step is a self-contained simulation —
// its own volume, its own engine, its own lazy re-streaming of the seeded
// trace — so each speed replays the identical request sequence, memory
// stays O(queue depth) per in-flight step (plus the kept responses with
// ExactP95), and the workloads and their steps fan out over the sweep
// engine without changing a bit of the output.
//
// MeanMillis, the CDF and CacheHitFraction are the same bits with or
// without ExactP95. ctx is bound to every step's engine and checked at
// every step boundary; a cancelled sweep's error wraps ctx.Err(). Span
// output nests per-workload and per-step sub-tracers merged in input
// order, so it too is independent of the worker count.
func Figure4(ctx context.Context, workloads []trace.Params, cfg Figure4Config) ([]WorkloadResult, error) {
	em := emitter{sink: cfg.OnStep}
	base := make([]int, len(workloads))
	for i, w := range workloads {
		base[i] = len(em.ready)
		em.ready = append(em.ready, make([]*RPMStep, len(cfg.stepsFor(w)))...)
	}
	// A single panel records straight into the caller's tracer and skips
	// the workload-level pool: one fan-out, as a one-workload sweep has
	// always run, which the sweep engine's run and item counters in the
	// TPC-C metrics golden record.
	if len(workloads) == 1 {
		res, err := cfg.sweep(ctx, workloads[0], cfg.Obs.Tracer, &em, 0)
		if err != nil {
			return nil, err
		}
		return []WorkloadResult{res}, nil
	}
	tracers := make([]*obs.Tracer, len(workloads))
	out, err := parallel.MapCtx(ctx, cfg.Workers, workloads, func(i int, w trace.Params) (WorkloadResult, error) {
		tracers[i] = cfg.Obs.subTracer()
		return cfg.sweep(ctx, w, tracers[i], &em, base[i])
	})
	if err != nil {
		return nil, err
	}
	for _, t := range tracers {
		cfg.Obs.Tracer.Merge(t)
	}
	return out, nil
}

// sweep runs one workload's steps, recording spans into per-step
// sub-tracers that merge into parent in step order after the fan-in.
// Step i is cell base+i of the emitter.
func (c Figure4Config) sweep(ctx context.Context, w trace.Params, parent *obs.Tracer, em *emitter, base int) (WorkloadResult, error) {
	steps := c.stepsFor(w)
	tracers := make([]*obs.Tracer, len(steps))
	out, err := parallel.MapCtx(ctx, c.Workers, steps, func(i int, rpm units.RPM) (RPMStep, error) {
		tracers[i] = c.Obs.subTracer()
		step, err := c.figure4Step(ctx, w, rpm, tracers[i])
		if err != nil {
			return RPMStep{}, err
		}
		em.done(base+i, step)
		return step, nil
	})
	if err != nil {
		return WorkloadResult{}, err
	}
	for _, t := range tracers {
		parent.Merge(t)
	}
	return WorkloadResult{Workload: w, Steps: out}, nil
}

// emitter delivers completed cells to a sink in grid order: a finished
// cell parks in ready until every earlier cell has arrived, then flushes.
// The mutex serializes pushes, so the sink needs no locking of its own.
type emitter struct {
	sink  sim.Sink[RPMStep]
	mu    sync.Mutex
	ready []*RPMStep
	next  int
}

func (e *emitter) done(i int, s RPMStep) {
	if e.sink == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ready[i] = &s
	for e.next < len(e.ready) && e.ready[e.next] != nil {
		e.sink.Push(*e.ready[e.next])
		e.next++
	}
}

// figure4Step runs one RPM cell: its own volume, its own engine, its own
// lazy re-streaming of the seeded trace. ctx is bound to the engine, so a
// cancelled sweep stops at the cell's next event.
func (c Figure4Config) figure4Step(ctx context.Context, p trace.Params, rpm units.RPM, tracer *obs.Tracer) (RPMStep, error) {
	vol, err := p.BuildVolume(rpm)
	if err != nil {
		return RPMStep{}, err
	}
	src, err := p.Stream(vol.Capacity())
	if err != nil {
		return RPMStep{}, err
	}

	eng := sim.NewEngine()
	eng.SetContext(ctx)
	if c.Obs.Registry != nil {
		vol.Instrument(c.Obs.Registry,
			"workload", p.Name, "rpm", strconv.Itoa(int(rpm)))
	}
	if tracer != nil {
		eng.SetTracer(tracer)
	}

	var mean stats.Running
	cdf := stats.NewFigure4Counts()
	p2 := stats.MustP2(0.95)
	addP95, p95 := p2.Add, p2.Value
	if c.ExactP95 {
		var all stats.Sample
		addP95, p95 = all.Add, func() float64 { return all.Percentile(95) }
	}
	var hits, subs int
	err = vol.RunStream(eng, src,
		sim.SinkFunc[raid.Completion](func(comp raid.Completion) {
			r := comp.Response()
			mean.Add(r)
			addP95(r)
			cdf.Add(r)
			hits += comp.CacheHits
			subs += comp.SubRequests
		}))
	if err != nil {
		return RPMStep{}, fmt.Errorf("core: %s at %v: %w", p.Name, rpm, err)
	}

	step := RPMStep{
		RPM:        rpm,
		MeanMillis: mean.Mean(),
		CDF:        cdf.CDF(),
		P95Millis:  p95(),
	}
	if subs > 0 {
		step.CacheHitFraction = float64(hits) / float64(subs)
	}
	return step, nil
}

// FormatResult renders one panel as text (CDF rows per RPM plus the means),
// mirroring how Figure 4 presents each workload.
func FormatResult(r WorkloadResult) string {
	s := fmt.Sprintf("%s (%d disks, %v, baseline %v)\n",
		r.Workload.Name, r.Workload.Disks, r.Workload.Level, r.Workload.BaselineRPM)
	s += "                    <=5    <=10   <=20   <=40   <=60   <=90  <=120  <=150  <=200   200+\n"
	for _, st := range r.Steps {
		s += stats.FormatCDFRow(fmt.Sprintf("%v", st.RPM), st.CDF) +
			fmt.Sprintf("   mean=%.2fms p95=%.1fms hit=%.0f%%\n",
				st.MeanMillis, st.P95Millis, st.CacheHitFraction*100)
	}
	return s
}

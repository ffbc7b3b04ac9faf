// Streaming DTM: the closed-loop controllers as event-loop processes. Each
// RunStream pulls requests lazily from a source, admits them as events on a
// (possibly shared) sim.Engine, and co-advances the drive's thermal
// transient with the disk clock — so a 10M-request replay runs in O(1)
// memory, and a controller can share one engine with other processes (a
// second volume, a fault timeline) on a single deterministic timeline.
//
// All five controllers run on one co-advance kernel (below). The kernel
// owns the transient, the clock, the temperature bookkeeping, the response
// statistics, fault binding, the sample tick and the request chain; a
// controller contributes only its validation, a decision hook the kernel
// calls before each service, and its result counters. RunStreamCtx adds
// cooperative cancellation to any controller's RunStream, and the batch Run
// wrappers share runBatch, which collects every completion and replaces
// the streaming P² 95th percentile with the exact order statistic. The
// streaming mean uses stats.Running, which reproduces Sample's mean
// bit-for-bit (same additions, same order).
package dtm

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/disksim"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/thermal"
	"repro/internal/units"
)

// kernel is the thermal co-advance loop every streaming controller runs
// on. For each request it advances the transient through the idle gap up
// to the service start and notes the temperature, calls the controller's
// decision hook (which may pause or change spindle speed through the
// kernel's two actions), serves the request, advances the transient
// through the busy period and notes again. The configuration fields are
// set by the controller before run; the rest is run state.
type kernel struct {
	disk        *disksim.Disk
	model       *thermal.Model
	initial     *thermal.State // nil: the drive soaked at ambient
	ambient     units.Celsius
	faults      *ThermalFaults // installed on the disk for the run, Temp bound to the transient
	sampleEvery time.Duration  // > 0: a periodic temperature-observation tick
	ins         *Instruments
	overAt      units.Celsius // the TimeOverThreshold line (0 = thermal.Envelope)

	// graceful ends the stream, instead of failing it, when the drive dies
	// (disksim.ErrDiskFailed); the controller reports diskFailed/failedAt.
	graceful bool

	// duty, when set, is the VCM duty charged for a completion's busy
	// period (nil: 1, the worst case the envelope is defined against).
	duty func(*disksim.Completion) float64

	// observe, when set, sees every noted (time, temperature) sample.
	observe func(at time.Duration, air units.Celsius)

	eng   *sim.Engine
	tr    *thermal.Transient
	clock time.Duration // thermal clock, tracks disk time
	comp  disksim.Completion
	maxT  units.Celsius
	over  overTracker
	mean  stats.Running
	p95   *stats.P2

	firstArrival, lastFinish time.Duration
	diskFailed               bool
	failedAt                 time.Duration
}

// streamFunc is a controller's RunStream method value.
type streamFunc[R any] func(*sim.Engine, sim.Source[disksim.Request], sim.Sink[disksim.Completion]) (R, error)

// run streams src through the kernel, pushing each completion to sink;
// decide is the controller's hook, called after the idle advance and
// before Disk.Serve. A decision error fails the run.
func (k *kernel) run(eng *sim.Engine, src sim.Source[disksim.Request], sink sim.Sink[disksim.Completion], decide func() error) error {
	if eng == nil {
		eng = sim.NewEngine()
	}
	k.eng = eng
	start0 := thermal.Uniform(k.ambient)
	if k.initial != nil {
		start0 = *k.initial
	}
	k.tr = k.model.NewTransient(start0)
	k.maxT = start0.Air
	k.over.limit = k.overAt
	if k.over.limit == 0 {
		k.over.limit = thermal.Envelope
	}
	k.p95 = stats.MustP2(0.95)
	k.firstArrival = -1
	if k.faults != nil {
		k.faults.Temp = func(time.Duration) units.Celsius { return k.tr.State().Air }
		k.disk.SetFaults(k.faults)
		defer k.disk.SetFaults(nil)
	}

	var failed error
	done := false
	fail := func(e *sim.Engine, err error) bool {
		failed = err
		e.Fail(err)
		return false
	}
	serve := func(e *sim.Engine, r disksim.Request) bool {
		start := r.Arrival
		if rt := k.disk.ReadyTime(); rt > start {
			start = rt
		}
		// Idle (or queued-but-not-seeking) period up to the service start.
		k.advance(start, 0)
		k.note()
		if err := decide(); err != nil {
			return fail(e, err)
		}
		if err := k.disk.ServeInto(&k.comp, r); err != nil {
			if k.graceful && errors.Is(err, disksim.ErrDiskFailed) {
				// The drive died mid-run: end the stream gracefully.
				k.diskFailed, k.failedAt = true, k.disk.FailedAt()
				done = true
				return false
			}
			return fail(e, err)
		}
		duty := 1.0
		if k.duty != nil {
			duty = k.duty(&k.comp)
		}
		k.advance(k.comp.Finish, duty)
		k.note()
		k.mean.Add(k.comp.Response())
		k.p95.Add(k.comp.Response())
		k.lastFinish = k.comp.Finish
		sink.Push(k.comp)
		return true
	}

	if k.sampleEvery > 0 {
		eng.Every(k.sampleEvery, k.sampleEvery, func(now time.Duration) bool {
			if done && eng.Pending() == 0 {
				return false
			}
			k.advance(now, 0)
			k.note()
			return true
		})
	}
	sim.Chain(eng, src, func(r disksim.Request) time.Duration {
		if k.firstArrival < 0 {
			k.firstArrival = r.Arrival
		}
		return r.Arrival
	}, serve, func() { done = true })
	if err := eng.Run(); err != nil {
		return err
	}
	return failed
}

// load is the thermal operating point at the disk's current spindle speed.
func (k *kernel) load(duty float64) thermal.Load {
	return thermal.Load{RPM: k.disk.RPM(), VCMDuty: duty, Ambient: k.ambient}
}

// advance steps the transient to the given time at the current speed.
func (k *kernel) advance(to time.Duration, duty float64) {
	if to > k.clock {
		k.tr.Advance(k.load(duty), to-k.clock)
		k.clock = to
	}
}

// air is the current internal air temperature.
func (k *kernel) air() units.Celsius { return k.tr.State().Air }

// note records the current temperature: the observe hook, the over-threshold
// integral, the metric gauges and the run's peak.
func (k *kernel) note() {
	t := k.tr.State().Air
	if k.observe != nil {
		k.observe(k.clock, t)
	}
	k.over.observe(k.clock, t)
	k.ins.noteTemp(t)
	if t > k.maxT {
		k.maxT = t
	}
}

// pause holds requests while the drive cools under load until cool holds
// (at most limit), plus extra clock for the spindle transitions the pause
// includes; the disk resumes after it. It emits a span named name and
// returns the pause length.
func (k *kernel) pause(name string, load thermal.Load, limit time.Duration, cool func(thermal.State) bool, extra time.Duration) time.Duration {
	pause, _ := k.tr.AdvanceUntil(load, limit, cool)
	pause += extra
	k.clock += pause
	k.disk.Delay(k.clock)
	air := k.air()
	k.over.observe(k.clock, air)
	throttleSpan(k.eng, name, k.clock-pause, k.clock, air)
	return pause
}

// spin changes the spindle speed to rpm. The transition holds the disk for
// trans, during which the transient is not advanced; it counts one
// Instruments transition and emits one dtm.rpm_transition span.
func (k *kernel) spin(rpm units.RPM, trans time.Duration) error {
	k.clock += trans
	k.ins.transition()
	k.disk.Delay(k.clock)
	if err := k.disk.SetRPM(rpm); err != nil {
		return err
	}
	throttleSpan(k.eng, "dtm.rpm_transition", k.clock-trans, k.clock, k.air())
	return nil
}

// summary is the run's response statistics (P² p95), peak air temperature
// and first-arrival-to-last-completion span.
func (k *kernel) summary() (mean, p95 float64, maxAir units.Celsius, elapsed time.Duration) {
	if k.mean.N() > 0 {
		elapsed = k.lastFinish - k.firstArrival
	}
	return k.mean.Mean(), k.p95.Value(), k.maxT, elapsed
}

// RunStreamCtx runs a controller's RunStream with cooperative cancellation:
// the source is gated on ctx, so the run ends at the next admission once
// ctx is done, and ctx.Err() is reported instead of a partial-looking
// result. run is the controller's RunStream method value, e.g.
//
//	res, err := dtm.RunStreamCtx(ctx, ctl.RunStream, eng, src, sink)
//
// With a never-cancelled context this is RunStream plus one nil-error check
// per request, so seeded runs stay bit-identical.
func RunStreamCtx[R any](ctx context.Context, run streamFunc[R], eng *sim.Engine, src sim.Source[disksim.Request], sink sim.Sink[disksim.Completion]) (R, error) {
	res, err := run(eng, sim.Gate(ctx, src), sink)
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		var zero R
		return zero, err
	}
	return res, nil
}

// batch is what a batch Run wrapper reports on top of its RunStream result:
// every completion, and their exact mean and 95th percentile.
type batch struct {
	completions []disksim.Completion
	mean, p95   float64
}

// runBatch runs reqs (sorted by arrival) through a controller's RunStream
// on a fresh engine, collecting every completion.
func runBatch[R any](run streamFunc[R], reqs []disksim.Request) (R, batch, error) {
	var collect sim.Appender[disksim.Completion]
	res, err := run(sim.NewEngine(), sim.FromSlice(reqs), &collect)
	if err != nil {
		return res, batch{}, err
	}
	var sample stats.Sample
	for _, comp := range collect.Items {
		sample.Add(comp.Response())
	}
	return res, batch{collect.Items, sample.Mean(), sample.Percentile(95)}, nil
}

// seekDuty charges the VCM for a request's seek time only.
func seekDuty(c *disksim.Completion) float64 {
	if svc := c.Finish - c.Start; svc > 0 {
		return float64(c.Parts.Seek) / float64(svc)
	}
	return 1
}

// valueOr is v, or def when v is the zero value: the "0 = default" rule of
// the controllers' config fields.
func valueOr[T comparable](v, def T) T {
	var zero T
	if v == zero {
		return def
	}
	return v
}

// RunStream services requests pulled lazily from src under the thermal
// policy, pushing each completion to sink. The source must yield requests in
// nondecreasing arrival order (FCFS). The returned Result carries streaming
// statistics (P² p95) and a nil Completions slice.
//
// When SampleEvery is positive, a periodic tick observes the internal air
// temperature on the engine clock, advancing the transient through idle
// gaps in sample-sized steps; MaxAirTemp then reflects those extra
// observations.
func (c *Controller) RunStream(eng *sim.Engine, src sim.Source[disksim.Request], sink sim.Sink[disksim.Completion]) (Result, error) {
	if c.Disk == nil || c.Thermal == nil {
		return Result{}, fmt.Errorf("dtm: controller needs a disk and a thermal model")
	}
	if c.Mode == VCMAndRPM && (c.LowRPM <= 0 || c.LowRPM >= c.Disk.RPM()) {
		return Result{}, fmt.Errorf("dtm: low speed %v must be below service speed %v", c.LowRPM, c.Disk.RPM())
	}
	env := valueOr(c.Envelope, thermal.Envelope)
	guardAt := env - valueOr(c.Guard, 0.05)
	resumeAt := env - valueOr(c.Hysteresis, 0.5)
	k := &kernel{disk: c.Disk, model: c.Thermal, initial: c.Initial,
		ambient: valueOr(c.Ambient, thermal.DefaultAmbient), sampleEvery: c.SampleEvery, ins: c.Ins}
	if c.SeekDuty {
		k.duty = seekDuty
	}
	coolDown := k.load(0)
	var spinTime time.Duration
	if c.Mode == VCMAndRPM {
		coolDown.RPM = c.LowRPM
		spinTime = 2 * valueOr(c.SpinTransition, 2*time.Second) // down and back up
	}
	resume := func(s thermal.State) bool { return s.Air <= resumeAt }

	var res Result
	err := k.run(eng, src, sink, func() error {
		// Throttle if the drive is at the guard band.
		if k.air() >= guardAt {
			res.ThrottleEvents++
			pause := k.pause("dtm.throttle", coolDown, coolLimit, resume, spinTime)
			res.ThrottledTime += pause
			c.Ins.throttle(pause)
		}
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	res.MeanResponseMillis, res.P95ResponseMillis, res.MaxAirTemp, res.Elapsed = k.summary()
	return res, nil
}

// RunStream services requests pulled lazily from src under the slack-ramping
// policy, pushing completions to sink. The source must yield requests in
// nondecreasing arrival order (FCFS).
func (s *SlackRamp) RunStream(eng *sim.Engine, src sim.Source[disksim.Request], sink sim.Sink[disksim.Completion]) (RampResult, error) {
	if s.Disk == nil || s.Thermal == nil {
		return RampResult{}, fmt.Errorf("dtm: ramp needs a disk and a thermal model")
	}
	base := s.Disk.RPM()
	if s.BoostRPM <= base {
		return RampResult{}, fmt.Errorf("dtm: boost %v must exceed base %v", s.BoostRPM, base)
	}
	rampAt := valueOr(s.RampAt, thermal.Envelope-2)
	dropAt := valueOr(s.DropAt, thermal.Envelope-0.2)
	trans := valueOr(s.SpinTransition, 2*time.Second)
	flaps := flapTracker{window: valueOr(s.FlapWindow, defaultFlapWindow)}
	k := &kernel{disk: s.Disk, model: s.Thermal, initial: s.Initial, faults: s.Faults,
		ambient: valueOr(s.Ambient, thermal.DefaultAmbient), sampleEvery: s.SampleEvery,
		ins: s.Ins, overAt: s.OverAt, graceful: true}

	var res RampResult
	boosted := false
	next := sink
	sink = sim.SinkFunc[disksim.Completion](func(c disksim.Completion) {
		if boosted {
			res.BoostedTime += c.Finish - c.Start
		}
		next.Push(c)
	})
	err := k.run(eng, src, sink, func() error {
		// Speed decisions happen between requests.
		switch air := k.air(); {
		case !boosted && air <= rampAt:
			boosted = true
			res.Transitions++
			flaps.engage(k.clock)
			return k.spin(s.BoostRPM, trans)
		case boosted && air >= dropAt:
			boosted = false
			res.Transitions++
			err := k.spin(base, trans)
			flaps.release(k.clock)
			return err
		}
		return nil
	})
	if err != nil {
		return RampResult{}, err
	}
	res.MeanResponseMillis, res.P95ResponseMillis, res.MaxAirTemp, res.Elapsed = k.summary()
	res.Flaps = flaps.flaps
	res.TimeOverThreshold = k.over.over
	res.Retries, res.Remaps = s.Disk.Retries(), s.Disk.Remapped()
	res.DiskFailed, res.FailedAt = k.diskFailed, k.failedAt
	return res, nil
}

// RunStream services requests pulled lazily from src under the level-walking
// policy, pushing completions to sink. The source must yield requests in
// nondecreasing arrival order. The returned result's P95ResponseMillis is a
// P² estimate; Run reports the exact order statistic instead.
func (p *DRPM) RunStream(eng *sim.Engine, src sim.Source[disksim.Request], sink sim.Sink[disksim.Completion]) (DRPMResult, error) {
	if p.Disk == nil || p.Thermal == nil {
		return DRPMResult{}, fmt.Errorf("dtm: DRPM needs a disk and a thermal model")
	}
	if len(p.Levels) < 2 {
		return DRPMResult{}, fmt.Errorf("dtm: DRPM needs at least 2 levels, have %d", len(p.Levels))
	}
	levels := append([]units.RPM(nil), p.Levels...)
	sort.Slice(levels, func(i, j int) bool { return levels[i] < levels[j] })
	level := -1
	for i, l := range levels {
		if l == p.Disk.RPM() {
			level = i
			break
		}
	}
	if level < 0 {
		return DRPMResult{}, fmt.Errorf("dtm: disk speed %v is not a configured level", p.Disk.RPM())
	}
	stepDownAt := valueOr(p.StepDownAt, thermal.Envelope-0.05)
	stepUpBelow := valueOr(p.StepUpBelow, thermal.Envelope-2)
	trans := valueOr(p.Transition, 2*time.Second)
	k := &kernel{disk: p.Disk, model: p.Thermal, initial: p.Initial,
		ambient: valueOr(p.Ambient, thermal.DefaultAmbient), sampleEvery: p.SampleEvery, ins: p.Ins}

	res := DRPMResult{TimeAtLevel: make(map[units.RPM]time.Duration, len(levels))}
	// The clock only moves through thermal advances at the current level
	// and through transitions, so a level's time is the clock it spans.
	var since time.Duration // clock when the current level began
	settle := func() {
		if d := k.clock - since; d > 0 {
			res.TimeAtLevel[levels[level]] += d
		}
	}
	step := func(to int) error {
		settle()
		level = to
		res.Transitions++
		err := k.spin(levels[level], trans)
		since = k.clock
		return err
	}
	err := k.run(eng, src, sink, func() error {
		// Walk the ladder between requests.
		switch air := k.air(); {
		case air >= stepDownAt && level > 0:
			return step(level - 1)
		case air <= stepUpBelow && level < len(levels)-1:
			return step(level + 1)
		}
		return nil
	})
	if err != nil {
		return DRPMResult{}, err
	}
	settle()
	res.MeanResponseMillis, res.P95ResponseMillis, res.MaxAirTemp, res.Elapsed = k.summary()
	return res, nil
}

// RunStream services requests pulled lazily from src under the escalation
// ladder, pushing completions to sink. The source must yield requests in
// nondecreasing arrival order. A disk failure raised by the fault injector
// ends the stream gracefully (DiskFailed set, completions cover the
// requests before the failure), matching Run.
func (e *Escalation) RunStream(eng *sim.Engine, src sim.Source[disksim.Request], sink sim.Sink[disksim.Completion]) (EscalationResult, error) {
	if e.Disk == nil || e.Thermal == nil {
		return EscalationResult{}, fmt.Errorf("dtm: escalation needs a disk and a thermal model")
	}
	levels := e.Levels
	if len(levels) == 0 {
		levels = []units.RPM{e.Disk.RPM()}
	}
	if levels[0] != e.Disk.RPM() {
		return EscalationResult{}, fmt.Errorf("dtm: level 0 (%v) must be the disk's service speed (%v)", levels[0], e.Disk.RPM())
	}
	for i := 1; i < len(levels); i++ {
		if levels[i] >= levels[i-1] {
			return EscalationResult{}, fmt.Errorf("dtm: levels must descend, got %v after %v", levels[i], levels[i-1])
		}
	}
	stepEngage, stepRelease, thrEngage, thrRelease, offEngage, offRelease := e.stageLines()
	amb := valueOr(e.Ambient, thermal.DefaultAmbient)
	trans := valueOr(e.SpinTransition, 2*time.Second)
	fw := valueOr(e.FlapWindow, defaultFlapWindow)
	stepFlaps := flapTracker{window: fw}
	thrFlaps := flapTracker{window: fw}
	offFlaps := flapTracker{window: fw}
	offCool := func(s thermal.State) bool { return s.Air <= offRelease }
	thrCool := func(s thermal.State) bool { return s.Air <= thrRelease }
	k := &kernel{disk: e.Disk, model: e.Thermal, initial: e.Initial, ambient: amb, faults: e.Faults,
		sampleEvery: e.SampleEvery, ins: e.Ins, overAt: e.OverAt, graceful: true}

	var res EscalationResult
	level := 0 // index into levels
	err := k.run(eng, src, sink, func() error {
		// Escalate, hottest stage first; each stage leaves the drive cool
		// enough that the next check falls through.
		air := k.air()
		if air >= offEngage {
			// Stage 3: spin down and go offline until cooled; the pause
			// includes the spin-down and the spin-up.
			res.Offlines++
			offFlaps.engage(k.clock)
			pause := k.pause("dtm.offline", thermal.Load{RPM: 0, VCMDuty: 0, Ambient: amb},
				offlineCoolLimit, offCool, 2*trans)
			res.OfflineTime += pause
			e.Ins.offline(pause)
			offFlaps.release(k.clock)
			air = k.air()
		}
		if air >= thrEngage {
			// Stage 2: VCM-off throttling at the current spindle speed.
			res.Throttles++
			thrFlaps.engage(k.clock)
			pause := k.pause("dtm.throttle", k.load(0), coolLimit, thrCool, 0)
			res.ThrottledTime += pause
			e.Ins.throttle(pause)
			thrFlaps.release(k.clock)
			air = k.air()
		}
		switch {
		case air >= stepEngage && level < len(levels)-1:
			// Stage 1: one spindle step down.
			level++
			res.StepDowns++
			stepFlaps.engage(k.clock)
			return k.spin(levels[level], trans)
		case air <= stepRelease && level > 0:
			// De-escalate one step once the drive has cooled.
			level--
			err := k.spin(levels[level], trans)
			stepFlaps.release(k.clock)
			return err
		}
		return nil
	})
	if err != nil {
		return EscalationResult{}, err
	}
	res.MeanResponseMillis, res.P95ResponseMillis, res.MaxAirTemp, res.Elapsed = k.summary()
	res.Flaps = stepFlaps.flaps + thrFlaps.flaps + offFlaps.flaps
	res.TimeOverThreshold = k.over.over
	res.Retries, res.Remaps = e.Disk.Retries(), e.Disk.Remapped()
	res.DiskFailed, res.FailedAt = k.diskFailed, k.failedAt
	return res, nil
}

package fleet

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/disksim"
	"repro/internal/reliability"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/thermal"
	"repro/internal/units"
)

// Per-drive DTM constants, matching the dtm controllers' discipline.
const (
	// guardBand below the envelope triggers a VCM-off throttle.
	guardBand units.Celsius = 0.05

	// resumeHysteresis below the envelope is where a throttle releases.
	resumeHysteresis units.Celsius = 0.5

	// violationReset below the envelope closes an open violation episode,
	// so one excursion counts once rather than per-request.
	violationReset units.Celsius = 0.25

	// coolLimit caps a single throttle pause; under a cooling failure the
	// local ambient can sit above the resume point, where an uncapped wait
	// would never return.
	coolLimit = 30 * time.Minute

	// requestSectors and writeFraction shape the synthetic streams, same
	// as dtm.SyntheticSource.
	requestSectors = 8
	writeFraction  = 0.3
)

// chassisResult is one shard's contribution to the fleet aggregates.
// Everything in it merges exactly or in fixed order, so the reduction is
// independent of which worker produced it when.
type chassisResult struct {
	rack  int
	index int

	requests       int64
	latency        stats.Running
	latencyBuckets *stats.BucketCounts
	tempBuckets    *stats.BucketCounts // per-drive max internal air
	exposure       *reliability.Exposure

	hottest        units.Celsius // max internal air across the chassis
	violations     int64         // envelope-violation episodes
	throttleEvents int64
	throttledTime  time.Duration
	migrations     int64
}

// arrival is one drawn request of a drive stream, before it is bound to a
// slot (the stream's slot can change by migration while it waits).
type arrival struct {
	at    time.Duration
	id    int64
	frac  float64 // position across the drive's LBN range
	write bool
}

func (a arrival) when() time.Duration { return a.at }

// rngPool recycles the per-stream generators: a math/rand source is ~5 KB,
// and every chassis needs one per slot. Seed resets a pooled source to
// exactly the state rand.NewSource would build.
var rngPool = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// fleetDrive is one slot's live state during a chassis simulation.
type fleetDrive struct {
	gen   *Generation
	disk  *disksim.Disk
	tr    *thermal.Transient
	clock time.Duration // thermal clock, tracks disk time

	base        units.Celsius // design ambient under normal cooling
	air         units.Celsius // last observed internal air
	maxAir      units.Celsius
	inViolation bool
}

// runChassis simulates one chassis end to end on its own engine: every
// slot's drive co-advances a thermal transient with its disk clock, a
// per-drive throttle guards the envelope, and (when enabled) the
// temperature-threshold migration policy moves streams between slots. All
// coupling stays inside the chassis, which is what makes the chassis the
// determinism shard: its result depends only on (cfg, its slots' streams).
func runChassis(ctx context.Context, cfg Config, env chassisEnv, streamOn []int, streams []streamSpec) (*chassisResult, error) {
	res := &chassisResult{
		rack:           env.rack,
		index:          env.index,
		latencyBuckets: stats.NewBucketCounts(LatencyEdges()),
		tempBuckets:    stats.NewBucketCounts(TempEdges()),
		exposure:       reliability.NewExposure(reliability.Default()),
	}

	n := len(env.gens)
	drives := make([]*fleetDrive, n)
	for s := 0; s < n; s++ {
		g := env.gens[s]
		disk, err := disksim.New(disksim.Config{Layout: g.Layout, RPM: g.RPM})
		if err != nil {
			return nil, fmt.Errorf("fleet: chassis %d slot %d: %w", env.index, s, err)
		}
		base := env.ambients[s]
		drives[s] = &fleetDrive{
			gen:    g,
			disk:   disk,
			tr:     g.Thermal.NewTransient(thermal.Uniform(base)),
			base:   base,
			air:    base,
			maxAir: base,
		}
	}

	failure := cfg.Scenario.CoolingFailure
	if !failure.affects(env.rack) {
		failure = nil
	}

	// ambientAt is the slot's local ambient on the sim clock: the static
	// design-point preheat plus the cooling-failure delta when active.
	ambientAt := func(d *fleetDrive, t time.Duration) units.Celsius {
		if failure.active(env.rack, t) {
			return d.base + failure.DeltaC
		}
		return d.base
	}

	// note observes a drive's internal air: max tracking, violation
	// episodes, and the last-seen temperature migration decisions read.
	note := func(d *fleetDrive) {
		air := d.tr.State().Air
		d.air = air
		if air > d.maxAir {
			d.maxAir = air
		}
		if air > res.hottest {
			res.hottest = air
		}
		switch {
		case air > thermal.Envelope && !d.inViolation:
			d.inViolation = true
			res.violations++
		case d.inViolation && air <= thermal.Envelope-violationReset:
			d.inViolation = false
		}
	}

	// advance integrates a drive's transient to the target time, splitting
	// the step at the cooling-failure boundaries so each segment sees its
	// own ambient, and charging the segment to the drive's thermal
	// exposure at the segment-end temperature.
	advance := func(d *fleetDrive, to time.Duration, duty float64) {
		for d.clock < to {
			end := to
			if failure != nil {
				switch {
				case d.clock < failure.At && failure.At < end:
					end = failure.At
				case d.clock < failure.At+failure.Duration && failure.At+failure.Duration < end:
					end = failure.At + failure.Duration
				}
			}
			seg := end - d.clock
			d.tr.Advance(thermal.Load{RPM: d.gen.RPM, VCMDuty: duty, Ambient: ambientAt(d, d.clock)}, seg)
			d.clock = end
			res.exposure.Add(d.tr.State().Air, seg)
		}
		note(d)
	}

	eng := sim.NewEngine()
	eng.SetContext(ctx)

	serve := func(e *sim.Engine, d *fleetDrive, r disksim.Request) bool {
		start := r.Arrival
		if rt := d.disk.ReadyTime(); rt > start {
			start = rt
		}
		advance(d, start, 0)

		if d.tr.State().Air >= thermal.Envelope-guardBand {
			res.throttleEvents++
			cool := thermal.Load{RPM: d.gen.RPM, VCMDuty: 0, Ambient: ambientAt(d, d.clock)}
			pause, _ := d.tr.AdvanceUntil(cool, coolLimit,
				func(s thermal.State) bool { return s.Air <= thermal.Envelope-resumeHysteresis })
			res.exposure.Add(d.tr.State().Air, pause)
			d.clock += pause
			res.throttledTime += pause
			note(d)
			d.disk.Delay(d.clock)
		}

		comp, err := d.disk.Serve(r)
		if err != nil {
			e.Fail(err)
			return false
		}
		advance(d, comp.Finish, 1)
		res.requests++
		ms := float64(comp.Response()) / float64(time.Millisecond)
		res.latency.AddMillis(ms)
		res.latencyBuckets.AddMillis(ms)
		if cfg.Metrics != nil {
			cfg.Metrics.observe(d.tr.State().Air)
		}
		return true
	}

	// pickCooler returns the migration target for a stream leaving slot
	// from: the coolest other slot (by last observed air, ties to the
	// lowest index) that sits below the hysteresis band, or -1.
	pickCooler := func(from int) int {
		limit := cfg.Migration.ThresholdC - cfg.Migration.HysteresisC
		best, bestAir := -1, units.Celsius(0)
		for s, d := range drives {
			if s == from || d.air > limit {
				continue
			}
			if best < 0 || d.air < bestAir {
				best, bestAir = s, d.air
			}
		}
		return best
	}

	// One admission chain per stream bound to this chassis. The stream
	// draws from its own rng (keyed by global stream id; pooled, and
	// re-seeded to exactly the sequence a fresh source would give) and
	// tracks its current slot; a migration rebinds the remaining requests
	// to the cooler slot. The chain reuses one event closure per stream,
	// so admission allocates nothing per request.
	rngs := make([]*rand.Rand, n)
	for s := 0; s < n; s++ {
		spec := streams[streamOn[env.slot0+s]]
		rng := rngPool.Get().(*rand.Rand)
		rngs[s] = rng
		rng.Seed(mix(cfg.Workload.Seed, tagArrival, int64(spec.id)))
		slot := s
		remaining := cfg.Workload.RequestsPerDrive
		now := 0.0
		nextID := int64(spec.id) * int64(cfg.Workload.RequestsPerDrive)

		next := func() (arrival, bool) {
			if remaining == 0 {
				return arrival{}, false
			}
			remaining--
			now += rng.ExpFloat64() / spec.rate
			// Go evaluates the calls in lexical order: frac before write.
			a := arrival{
				at:    time.Duration(now * float64(time.Second)),
				id:    nextID,
				frac:  rng.Float64(),
				write: rng.Float64() < writeFraction,
			}
			nextID++
			return a, true
		}
		sim.Chain(eng, sim.SourceFunc[arrival](next), arrival.when,
			func(e *sim.Engine, a arrival) bool {
				d := drives[slot]
				lbn := int64(a.frac * float64(d.gen.TotalSectors-requestSectors))
				ok := serve(e, d, disksim.Request{
					ID:      a.id,
					Arrival: a.at,
					LBN:     lbn,
					Sectors: requestSectors,
					Write:   a.write,
				})
				if ok && cfg.Migration.ThresholdC > 0 && d.air >= cfg.Migration.ThresholdC {
					if to := pickCooler(slot); to >= 0 {
						slot = to
						res.migrations++
					}
				}
				return ok
			}, nil)
	}
	defer func() {
		for _, rng := range rngs {
			rngPool.Put(rng)
		}
	}()

	if err := eng.Run(); err != nil {
		return nil, err
	}

	// Drain every drive's transient to the chassis' end of time so idle
	// tails (and the cooling-failure window, if it outlives the last
	// request) are scored, then fold the per-drive maxima into the
	// fleet's temperature distribution.
	end := eng.Now()
	if failure != nil {
		if fe := failure.At + failure.Duration; fe > end {
			end = fe
		}
	}
	for _, d := range drives {
		advance(d, end, 0)
		res.tempBuckets.AddMillis(float64(d.maxAir))
	}
	return res, nil
}

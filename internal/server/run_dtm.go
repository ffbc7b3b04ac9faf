package server

import (
	"context"
	"time"

	"repro/internal/capacity"
	"repro/internal/disksim"
	"repro/internal/dtm"
	"repro/internal/scaling"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/thermal"
	"repro/internal/units"
)

const (
	defaultDTMRequests = 30000
	defaultDTMRate     = 120.0
	defaultDTMSeed     = 11 // the policy comparison's historic seed
)

// dtmSampleLine is an in-flight progress line, kind "sample". Samples are
// cut on completion count against the sim clock, so the stream is as
// deterministic as the run.
type dtmSampleLine struct {
	Kind      string  `json:"kind"`
	Completed int     `json:"completed"`
	SimMillis float64 `json:"sim_ms"`
	MeanMS    float64 `json:"mean_ms"`
}

// dtmResultLine is the terminal summary, kind "result". The optional
// fields cover the knobs that exist only on some policies.
type dtmResultLine struct {
	Kind   string `json:"kind"`
	Policy string `json:"policy"`

	MeanMS       float64 `json:"mean_ms"`
	P95MS        float64 `json:"p95_ms,omitempty"`
	MaxAirTempC  float64 `json:"max_air_temp_c,omitempty"`
	ElapsedSimMS float64 `json:"elapsed_sim_ms,omitempty"`

	ThrottleEvents int     `json:"throttle_events,omitempty"`
	ThrottledSimMS float64 `json:"throttled_sim_ms,omitempty"`
	Transitions    int     `json:"transitions,omitempty"`
	BoostedSimMS   float64 `json:"boosted_sim_ms,omitempty"`
	StepDowns      int     `json:"step_downs,omitempty"`
	Offlines       int     `json:"offlines,omitempty"`
	OfflineSimMS   float64 `json:"offline_sim_ms,omitempty"`
}

// runDTM executes one closed-loop policy on the 2005 reference drive, the
// same configuration cmd/dtm's policy comparison runs.
func runDTM(ctx context.Context, spec Spec, env runEnv) error {
	d := spec.DTM
	n := d.Requests
	if n == 0 {
		n = defaultDTMRequests
	}
	rate := d.RatePerS
	if rate == 0 {
		rate = defaultDTMRate
	}
	seed := d.Seed
	if seed == 0 {
		seed = defaultDTMSeed
	}

	geom := thermal.ReferenceDrive
	bpi, tpi := scaling.DefaultTrend().Densities(2005)
	layout, err := capacity.New(capacity.Config{Geometry: geom, BPI: bpi, TPI: tpi, Zones: 50})
	if err != nil {
		return err
	}
	th, err := thermal.New(geom)
	if err != nil {
		return err
	}
	src := dtm.SyntheticSource(layout.TotalSectors(), n, rate, seed)

	// Progress sink shared by every policy: a running mean plus periodic
	// sample lines. emitErr carries a failed emit out of the sink.
	var (
		mean    stats.Running
		count   int
		emitErr error
	)
	sink := sim.SinkFunc[disksim.Completion](func(c disksim.Completion) {
		mean.Add(c.Response())
		count++
		if emitErr == nil && d.SampleEvery > 0 && count%d.SampleEvery == 0 {
			emitErr = env.emit(dtmSampleLine{
				Kind:      "sample",
				Completed: count,
				SimMillis: float64(c.Finish) / float64(time.Millisecond),
				MeanMS:    mean.Mean(),
			})
		}
		if env.checkpointDue(count) {
			env.checkpoint(int64(count))
		}
	})

	newDisk := func(rpm units.RPM) (*disksim.Disk, error) {
		return disksim.New(disksim.Config{Layout: layout, RPM: rpm})
	}
	eng := sim.NewEngine()
	out := dtmResultLine{Kind: "result", Policy: d.Policy}

	switch d.Policy {
	case "envelope":
		disk, err := newDisk(15020)
		if err != nil {
			return err
		}
		if err := disk.RunStreamCtx(ctx, eng, src, sink); err != nil {
			return err
		}
		out.MeanMS = mean.Mean()
	case "watermark":
		disk, err := newDisk(24534)
		if err != nil {
			return err
		}
		ctl := dtm.Controller{Disk: disk, Thermal: th, Mode: dtm.VCMOnly}
		res, err := dtm.RunStreamCtx(ctx, ctl.RunStream, eng, src, sink)
		if err != nil {
			return err
		}
		out.MeanMS = res.MeanResponseMillis
		out.P95MS = res.P95ResponseMillis
		out.MaxAirTempC = float64(res.MaxAirTemp)
		out.ThrottleEvents = res.ThrottleEvents
		out.ThrottledSimMS = durMS(res.ThrottledTime)
		out.ElapsedSimMS = durMS(res.Elapsed)
	case "slack-ramp":
		disk, err := newDisk(15020)
		if err != nil {
			return err
		}
		ramp := dtm.SlackRamp{Disk: disk, Thermal: th, BoostRPM: 24534}
		res, err := dtm.RunStreamCtx(ctx, ramp.RunStream, eng, src, sink)
		if err != nil {
			return err
		}
		out.MeanMS = res.MeanResponseMillis
		out.MaxAirTempC = float64(res.MaxAirTemp)
		out.Transitions = res.Transitions
		out.BoostedSimMS = durMS(res.BoostedTime)
		out.ElapsedSimMS = durMS(res.Elapsed)
	case "drpm":
		disk, err := newDisk(24534)
		if err != nil {
			return err
		}
		pol := dtm.DRPM{Disk: disk, Thermal: th, Levels: []units.RPM{15020, 18000, 21000, 24534}}
		res, err := dtm.RunStreamCtx(ctx, pol.RunStream, eng, src, sink)
		if err != nil {
			return err
		}
		out.MeanMS = res.MeanResponseMillis
		out.P95MS = res.P95ResponseMillis
		out.MaxAirTempC = float64(res.MaxAirTemp)
		out.Transitions = res.Transitions
		out.ElapsedSimMS = durMS(res.Elapsed)
	case "escalation":
		disk, err := newDisk(24534)
		if err != nil {
			return err
		}
		hot := th.SteadyState(thermal.WorstCase(24534))
		esc := dtm.Escalation{
			Disk:    disk,
			Thermal: th,
			Levels:  []units.RPM{24534, 21000, 18000, 15020},
			Initial: &hot,
		}
		res, err := dtm.RunStreamCtx(ctx, esc.RunStream, eng, src, sink)
		if err != nil {
			return err
		}
		out.MeanMS = res.MeanResponseMillis
		out.P95MS = res.P95ResponseMillis
		out.MaxAirTempC = float64(res.MaxAirTemp)
		out.StepDowns = res.StepDowns
		out.ThrottleEvents = res.Throttles
		out.ThrottledSimMS = durMS(res.ThrottledTime)
		out.Offlines = res.Offlines
		out.OfflineSimMS = durMS(res.OfflineTime)
		out.ElapsedSimMS = durMS(res.Elapsed)
	}
	if emitErr != nil {
		return emitErr
	}
	return env.emit(out)
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

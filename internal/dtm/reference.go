package dtm

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/capacity"
	"repro/internal/disksim"
	"repro/internal/obs"
	"repro/internal/scaling"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/thermal"
	"repro/internal/units"
)

// The 2005 reference drive's design points (§5): the envelope-design speed,
// and the average-case speed DTM must keep inside the envelope.
const (
	EnvelopeRPM    units.RPM = 15020
	AverageCaseRPM units.RPM = 24534
)

// Policies lists the policies a PolicyRun accepts.
var Policies = []string{"envelope", "watermark", "slack-ramp", "drpm", "escalation"}

// PolicyRun is the paper's DTM scenario: the 2005 reference drive serving
// the seeded synthetic policy workload (SyntheticSource) under one
// closed-loop policy. It is the one description of that scenario; cmd/dtm's
// policy comparison and emergency ladder and simd's dtm jobs all run it.
type PolicyRun struct {
	// Policy is one of Policies: "envelope" (EnvelopeRPM, no DTM),
	// "watermark" (VCM-only throttling at AverageCaseRPM), "slack-ramp"
	// (EnvelopeRPM boosting to AverageCaseRPM), "drpm" (four levels
	// between the two) or "escalation" (the emergency ladder from a
	// worst-case hot start at AverageCaseRPM).
	Policy string

	Requests int     // 0 = 30000
	RatePerS float64 // 0 = 120
	Seed     int64   // 0 = 11, the comparison's historic seed

	// Faults, when non-nil, is wired into the slack-ramp or escalation
	// controller; the other policies reject it.
	Faults *ThermalFaults

	// Registry, when non-nil, receives the run's disk and controller
	// series and its thermal-cache gauges, labelled policy=Policy.
	Registry *obs.Registry
}

// PolicySummary is what a PolicyRun reports, in the form simd's dtm job
// result line carries it. Fields a policy does not report stay zero and
// drop out of the JSON: only the controllers measure temperature and
// elapsed time, and each counts its own control actions.
type PolicySummary struct {
	Policy string `json:"policy"`

	MeanMS       float64 `json:"mean_ms"`
	P95MS        float64 `json:"p95_ms,omitempty"` // watermark, drpm and escalation
	MaxAirTempC  float64 `json:"max_air_temp_c,omitempty"`
	ElapsedSimMS float64 `json:"elapsed_sim_ms,omitempty"`

	ThrottleEvents int     `json:"throttle_events,omitempty"` // watermark, escalation stage 2
	ThrottledSimMS float64 `json:"throttled_sim_ms,omitempty"`
	Transitions    int     `json:"transitions,omitempty"` // slack-ramp and drpm
	BoostedSimMS   float64 `json:"boosted_sim_ms,omitempty"`
	StepDowns      int     `json:"step_downs,omitempty"` // escalation stage 1
	Offlines       int     `json:"offlines,omitempty"`   // escalation stage 3
	OfflineSimMS   float64 `json:"offline_sim_ms,omitempty"`

	// Served counts the completions pushed to the sink; the rest is the
	// injected-fault outcome (slack-ramp and escalation).
	Served          int           `json:"-"`
	Retries, Remaps int64         `json:"-"`
	DiskFailed      bool          `json:"-"`
	FailedAt        time.Duration `json:"-"`
}

// Run executes the scenario on eng (nil = a fresh engine), pushing every
// completion to sink (nil = discard). ctx is bound to the engine, so the
// run ends at its next event with ctx.Err() once ctx is done. Equal fields
// give an equal summary, bit for bit.
func (r PolicyRun) Run(ctx context.Context, eng *sim.Engine, sink sim.Sink[disksim.Completion]) (PolicySummary, error) {
	if !slices.Contains(Policies, r.Policy) {
		return PolicySummary{}, fmt.Errorf("dtm: unknown policy %q", r.Policy)
	}
	if r.Faults != nil && r.Policy != "slack-ramp" && r.Policy != "escalation" {
		return PolicySummary{}, fmt.Errorf("dtm: policy %q takes no fault injector", r.Policy)
	}
	geom := thermal.ReferenceDrive
	bpi, tpi := scaling.DefaultTrend().Densities(2005)
	layout, err := capacity.New(capacity.Config{Geometry: geom, BPI: bpi, TPI: tpi, Zones: 50})
	if err != nil {
		return PolicySummary{}, err
	}
	th, err := thermal.New(geom)
	if err != nil {
		return PolicySummary{}, err
	}
	rpm := AverageCaseRPM
	if r.Policy == "envelope" || r.Policy == "slack-ramp" {
		rpm = EnvelopeRPM
	}
	disk, err := disksim.New(disksim.Config{Layout: layout, RPM: rpm})
	if err != nil {
		return PolicySummary{}, err
	}
	disk.SetInstruments(disksim.NewInstruments(r.Registry, len(layout.Zones), "policy", r.Policy))
	var ins *Instruments // the envelope design runs no controller
	if r.Policy != "envelope" {
		ins = NewInstruments(r.Registry, r.Policy)
	}

	src := SyntheticSource(layout.TotalSectors(), valueOr(r.Requests, 30000),
		valueOr(r.RatePerS, 120), valueOr(r.Seed, 11))
	if sink == nil {
		sink = sim.Discard[disksim.Completion]()
	}
	if eng == nil {
		eng = sim.NewEngine()
	}
	eng.SetContext(ctx)
	sum := PolicySummary{Policy: r.Policy}
	var mean stats.Running
	counted := sim.SinkFunc[disksim.Completion](func(c disksim.Completion) {
		sum.Served++
		mean.Add(c.Response())
		sink.Push(c)
	})

	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	switch r.Policy {
	case "envelope":
		err = disk.RunStream(eng, src, counted)
		sum.MeanMS = mean.Mean()
	case "watermark":
		ctl := Controller{Disk: disk, Thermal: th, Mode: VCMOnly, Ins: ins}
		var res Result
		res, err = ctl.RunStream(eng, src, counted)
		sum.MeanMS, sum.P95MS = res.MeanResponseMillis, res.P95ResponseMillis
		sum.MaxAirTempC, sum.ElapsedSimMS = float64(res.MaxAirTemp), ms(res.Elapsed)
		sum.ThrottleEvents, sum.ThrottledSimMS = res.ThrottleEvents, ms(res.ThrottledTime)
	case "slack-ramp":
		ramp := SlackRamp{Disk: disk, Thermal: th, BoostRPM: AverageCaseRPM, Faults: r.Faults, Ins: ins}
		var res RampResult
		res, err = ramp.RunStream(eng, src, counted)
		sum.MeanMS, sum.MaxAirTempC, sum.ElapsedSimMS = res.MeanResponseMillis, float64(res.MaxAirTemp), ms(res.Elapsed)
		sum.Transitions, sum.BoostedSimMS = res.Transitions, ms(res.BoostedTime)
		sum.Retries, sum.Remaps, sum.DiskFailed, sum.FailedAt = res.Retries, res.Remaps, res.DiskFailed, res.FailedAt
	case "drpm":
		pol := DRPM{Disk: disk, Thermal: th, Levels: []units.RPM{EnvelopeRPM, 18000, 21000, AverageCaseRPM}, Ins: ins}
		var res DRPMResult
		res, err = pol.RunStream(eng, src, counted)
		sum.MeanMS, sum.P95MS = res.MeanResponseMillis, res.P95ResponseMillis
		sum.MaxAirTempC, sum.ElapsedSimMS, sum.Transitions = float64(res.MaxAirTemp), ms(res.Elapsed), res.Transitions
	case "escalation":
		hot := th.SteadyState(thermal.WorstCase(AverageCaseRPM))
		esc := Escalation{Disk: disk, Thermal: th, Levels: []units.RPM{AverageCaseRPM, 21000, 18000, EnvelopeRPM},
			Initial: &hot, Faults: r.Faults, Ins: ins}
		var res EscalationResult
		res, err = esc.RunStream(eng, src, counted)
		sum.MeanMS, sum.P95MS = res.MeanResponseMillis, res.P95ResponseMillis
		sum.MaxAirTempC, sum.ElapsedSimMS = float64(res.MaxAirTemp), ms(res.Elapsed)
		sum.StepDowns, sum.ThrottleEvents, sum.ThrottledSimMS = res.StepDowns, res.Throttles, ms(res.ThrottledTime)
		sum.Offlines, sum.OfflineSimMS = res.Offlines, ms(res.OfflineTime)
		sum.Retries, sum.Remaps, sum.DiskFailed, sum.FailedAt = res.Retries, res.Remaps, res.DiskFailed, res.FailedAt
	}
	if err != nil {
		return PolicySummary{}, err
	}
	if ins != nil {
		th.ExportCache(r.Registry, "policy", r.Policy) // a controller's thermal model ran
	}
	return sum, nil
}

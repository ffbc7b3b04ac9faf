package server

import (
	"context"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/units"
)

// defaultFigure4Requests keeps an unscaled figure4 job interactive; the
// full paper-scale replay is what the CLIs are for.
const defaultFigure4Requests = 2000

// figure4StepLine is one RPM cell of the sweep, kind "step". Steps stream
// as they complete, in sweep order at any worker count.
type figure4StepLine struct {
	Kind             string  `json:"kind"`
	Workload         string  `json:"workload"`
	RPM              float64 `json:"rpm"`
	MeanMillis       float64 `json:"mean_ms"`
	P95Millis        float64 `json:"p95_ms"`
	CacheHitFraction float64 `json:"cache_hit_fraction"`
}

// figure4SummaryLine closes one workload's sweep, kind "workload":
// the relative mean-response improvement of each faster step.
type figure4SummaryLine struct {
	Kind         string    `json:"kind"`
	Workload     string    `json:"workload"`
	BaselineRPM  float64   `json:"baseline_rpm"`
	Steps        int       `json:"steps"`
	Improvements []float64 `json:"improvements"`
}

// run replays one workload (or all five) across the RPM sweep, streaming
// each completed step.
func (f *Figure4Spec) run(ctx context.Context, _ *Server, spec Spec, env runEnv) error {
	workloads, err := lookupWorkloads(f.Workload)
	if err != nil {
		return err
	}
	n := f.Requests
	if n == 0 {
		n = defaultFigure4Requests
	}
	var steps []units.RPM // empty: each workload's paper sweep
	for _, rpm := range f.RPMSteps {
		steps = append(steps, units.RPM(rpm))
	}
	// Workloads run sequentially — results interleaved across workloads
	// would force clients to demultiplex; spec.workers() fans out the RPM
	// steps inside each workload instead.
	for _, w := range workloads {
		w = w.WithRequests(n)
		var emitErr error
		var stepsDone int64
		onStep := sim.SinkFunc[core.RPMStep](func(s core.RPMStep) {
			if emitErr != nil {
				return
			}
			emitErr = env.emit(figure4StepLine{
				Kind:             "step",
				Workload:         w.Name,
				RPM:              float64(s.RPM),
				MeanMillis:       s.MeanMillis,
				P95Millis:        s.P95Millis,
				CacheHitFraction: s.CacheHitFraction,
			})
			// Each step is a whole sub-simulation; make it durable as soon
			// as its line is out.
			stepsDone++
			env.checkpoint(stepsDone)
		})
		res, err := core.Figure4(ctx, []trace.Params{w},
			core.Figure4Config{Steps: steps, Workers: spec.workers(), OnStep: onStep})
		if err != nil {
			return err
		}
		if emitErr != nil {
			return emitErr
		}
		sum := figure4SummaryLine{
			Kind:         "workload",
			Workload:     w.Name,
			BaselineRPM:  float64(w.BaselineRPM),
			Steps:        len(res[0].Steps),
			Improvements: res[0].Improvements(),
		}
		if err := env.emit(sum); err != nil {
			return err
		}
	}
	return nil
}

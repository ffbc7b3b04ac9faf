package server

import (
	"context"
	"time"

	"repro/internal/disksim"
	"repro/internal/dtm"
	"repro/internal/sim"
	"repro/internal/stats"
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

// dtmResultLine is the terminal summary, kind "result".
type dtmResultLine struct {
	Kind string `json:"kind"`
	dtm.PolicySummary
}

// run executes one closed-loop policy on the 2005 reference drive
// (dtm.PolicyRun), streaming a sample line every SampleEvery completions
// and the summary.
func (d *DTMSpec) run(ctx context.Context, _ *Server, _ Spec, env runEnv) error {
	// emitErr carries a failed emit out of the sink.
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
				SimMillis: durMS(c.Finish),
				MeanMS:    mean.Mean(),
			})
		}
		if env.checkpointDue(count) {
			env.checkpoint(int64(count))
		}
	})
	run := dtm.PolicyRun{Policy: d.Policy, Requests: d.Requests, RatePerS: d.RatePerS, Seed: d.Seed}
	sum, err := run.Run(ctx, nil, sink)
	if err != nil {
		return err
	}
	if emitErr != nil {
		return emitErr
	}
	return env.emit(dtmResultLine{Kind: "result", PolicySummary: sum})
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

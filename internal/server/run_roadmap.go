package server

import (
	"context"

	"repro/internal/scaling"
	"repro/internal/sim"
	"repro/internal/units"
)

// emitFunc delivers one NDJSON result line. Runners emit only
// spec-determined values through it — no wall-clock, no job identity — so
// a seeded job's body is byte-identical on every run at any worker count.
type emitFunc = func(v any) error

// runEnv is what a runner gets beyond the spec: the emit sink plus the
// optional checkpointer that makes the lines emitted so far durable.
// Checkpoints are cut at deterministic positions on the sim timeline (a
// completion count, a sweep index) so a resumed run re-finds the same
// boundaries.
type runEnv struct {
	emit            emitFunc
	ckpt            sim.Checkpointer
	checkpointEvery int
}

// checkpoint marks progress at pos; a no-op without a checkpointer.
func (e runEnv) checkpoint(pos int64) {
	if e.ckpt != nil {
		e.ckpt.Checkpoint(pos)
	}
}

// checkpointDue reports whether a completion-count checkpoint falls on n.
func (e runEnv) checkpointDue(n int) bool {
	return e.ckpt != nil && e.checkpointEvery > 0 && n%e.checkpointEvery == 0
}

// roadmapPointLine is one (year, size) roadmap cell, kind "point".
type roadmapPointLine struct {
	Kind           string  `json:"kind"`
	Year           int     `json:"year"`
	SizeInches     float64 `json:"size_inches"`
	Platters       int     `json:"platters"`
	TargetIDRMBps  float64 `json:"target_idr_mbps"`
	IDRDensityMBps float64 `json:"idr_density_mbps"`
	RequiredRPM    float64 `json:"required_rpm"`
	RequiredTempC  float64 `json:"required_temp_c"`
	MaxRPM         float64 `json:"max_rpm"`
	MaxIDRMBps     float64 `json:"max_idr_mbps"`
	CapacityGB     float64 `json:"capacity_gb"`
	MeetsTarget    bool    `json:"meets_target"`
}

// roadmapSummaryLine closes a roadmap stream, kind "summary".
type roadmapSummaryLine struct {
	Kind        string `json:"kind"`
	Points      int    `json:"points"`
	FalloffYear int    `json:"falloff_year"`
}

// run executes a roadmap job. scaling.Roadmap has no internal
// cancellation hooks, but a default sweep is sub-second, so the job runs
// whole and the context is honoured between emitted lines.
func (r *RoadmapSpec) run(ctx context.Context, _ *Server, spec Spec, env runEnv) error {
	cfg := scaling.Config{
		FirstYear:    r.FirstYear,
		LastYear:     r.LastYear,
		Platters:     r.Platters,
		VCMOff:       r.VCMOff,
		AmbientDelta: units.Celsius(r.AmbientDelta),
		Workers:      spec.workers(),
	}
	for _, sz := range r.PlatterSizes {
		cfg.PlatterSizes = append(cfg.PlatterSizes, units.Inches(sz))
	}
	pts, err := scaling.Roadmap(cfg)
	if err != nil {
		return err
	}
	for i, p := range pts {
		if err := ctx.Err(); err != nil {
			return err
		}
		line := roadmapPointLine{
			Kind:           "point",
			Year:           p.Year,
			SizeInches:     float64(p.Size),
			Platters:       p.Platters,
			TargetIDRMBps:  float64(p.TargetIDR),
			IDRDensityMBps: float64(p.IDRDensity),
			RequiredRPM:    float64(p.RequiredRPM),
			RequiredTempC:  float64(p.RequiredTemp),
			MaxRPM:         float64(p.MaxRPM),
			MaxIDRMBps:     float64(p.MaxIDR),
			CapacityGB:     p.Capacity.GB(),
			MeetsTarget:    p.MeetsTarget,
		}
		if err := env.emit(line); err != nil {
			return err
		}
		// Roadmap sweeps are small; checkpoint every few rows rather than
		// on the (larger) completion-count cadence.
		if (i+1)%8 == 0 {
			env.checkpoint(int64(i + 1))
		}
	}
	return env.emit(roadmapSummaryLine{
		Kind:        "summary",
		Points:      len(pts),
		FalloffYear: scaling.FalloffYear(pts),
	})
}

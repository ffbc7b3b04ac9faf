package server

import (
	"context"
	"time"

	"repro/internal/fleet"
	"repro/internal/units"
)

// fleetRackLine is one rack's merged aggregates, kind "rack". The embedded
// summary carries only spec-determined values, so the stream stays
// byte-identical across worker counts and resumes.
type fleetRackLine struct {
	Kind string `json:"kind"`
	fleet.RackSummary
}

// fleetSummaryLine closes a fleet stream with the fleet-wide reduction,
// kind "summary".
type fleetSummaryLine struct {
	Kind string `json:"kind"`
	fleet.Summary
}

// config maps the wire spec onto the fleet engine's configuration.
func (f *FleetSpec) config(workers int, met *fleet.Metrics) fleet.Config {
	cfg := fleet.Config{
		Topology: fleet.Topology{
			Racks:           f.Racks,
			ChassisPerRack:  f.ChassisPerRack,
			SlotsPerChassis: f.SlotsPerChassis,
		},
		Scenario: fleet.Scenario{
			AirflowCFM:    f.AirflowCFM,
			Recirculation: f.Recirculation,
		},
		Workload: fleet.Workload{
			RequestsPerDrive: f.RequestsPerDrive,
			HotFraction:      f.HotFraction,
			Seed:             f.Seed,
		},
		Placement: fleet.Placement(f.Placement),
		Migration: fleet.Migration{
			ThresholdC:  units.Celsius(f.MigrateAtC),
			HysteresisC: units.Celsius(f.HysteresisC),
		},
		GenYears: f.GenYears,
		Workers:  workers,
		Metrics:  met,
	}
	if cf := f.CoolingFailure; cf != nil {
		cfg.Scenario.CoolingFailure = &fleet.CoolingFailure{
			Rack:     cf.Rack,
			At:       time.Duration(cf.AtMS) * time.Millisecond,
			Duration: time.Duration(cf.DurationMS) * time.Millisecond,
			DeltaC:   units.Celsius(cf.DeltaC),
		}
	}
	return cfg
}

// run executes a fleet job: one "rack" line per rack as the shard
// merges complete, then the fleet "summary". Rack boundaries are the
// deterministic checkpoint positions — a resumed run re-simulates from the
// start and verify-skips the racks already journaled, re-finding exactly
// the same boundaries because the merge order is topology order at every
// worker count.
func (f *FleetSpec) run(ctx context.Context, s *Server, spec Spec, env runEnv) error {
	sum, err := fleet.Run(ctx, f.config(spec.workers(), s.fleetMet), func(rs fleet.RackSummary) error {
		if err := env.emit(fleetRackLine{Kind: "rack", RackSummary: rs}); err != nil {
			return err
		}
		env.checkpoint(int64(rs.Rack + 1))
		return nil
	})
	if err != nil {
		return err
	}
	return env.emit(fleetSummaryLine{Kind: "summary", Summary: sum})
}

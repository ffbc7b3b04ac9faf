package dtm

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/disksim"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/thermal"
	"repro/internal/units"
)

// TestRPMTransitionSpansMatchTransitions checks that every spindle-speed
// change a controller makes, in either direction, is both counted by its
// Instruments and recorded as one dtm.rpm_transition span on a traced
// engine.
func TestRPMTransitionSpansMatchTransitions(t *testing.T) {
	if testing.Short() {
		t.Skip("long thermal-coupled runs")
	}
	levels := []units.RPM{24534, 21000, 18000, 15020}
	// Each case's ctl builds the controller on the given disk, model, warm
	// start and instruments, and returns its RunStream.
	type stream func(*disksim.Disk, *thermal.Model, *thermal.State, *Instruments) runErr
	cases := []struct {
		name string
		rpm  units.RPM
		rate float64
		ctl  stream
	}{
		{"slack-ramp", 15020, 120, func(disk *disksim.Disk, th *thermal.Model, warm *thermal.State, ins *Instruments) runErr {
			return errOnly((&SlackRamp{Disk: disk, Thermal: th, BoostRPM: 24534, Initial: warm, Ins: ins}).RunStream)
		}},
		{"drpm", 24534, 10, func(disk *disksim.Disk, th *thermal.Model, warm *thermal.State, ins *Instruments) runErr {
			return errOnly((&DRPM{Disk: disk, Thermal: th, Levels: levels, Initial: warm, Ins: ins}).RunStream)
		}},
		{"escalation", 24534, 10, func(disk *disksim.Disk, th *thermal.Model, warm *thermal.State, ins *Instruments) runErr {
			return errOnly((&Escalation{Disk: disk, Thermal: th, Levels: levels, Initial: warm, Hysteresis: 0.1, Ins: ins}).RunStream)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			disk, th := buildDTMDisk(t, tc.rpm)
			warm := th.SteadyState(thermal.WorstCase(24534))
			warm.Air = thermal.Envelope - 4
			reg := obs.NewRegistry()
			eng := sim.NewEngine()
			tracer := obs.NewTracer(0)
			eng.SetTracer(tracer)
			src := sim.FromSlice(dtmWorkload(t, disk.Layout().TotalSectors(), 3000, tc.rate))
			run := tc.ctl(disk, th, &warm, NewInstruments(reg, tc.name))
			if err := run(eng, src, sim.Discard[disksim.Completion]()); err != nil {
				t.Fatal(err)
			}
			var transitions int64
			for _, m := range reg.Snapshot() {
				if m.Name == "dtm_rpm_transitions_total" {
					transitions = m.Count
				}
			}
			var spans int64
			for _, s := range tracer.Spans() {
				if s.Name == "dtm.rpm_transition" {
					spans++
				}
			}
			if transitions < 2 {
				t.Fatalf("only %d transitions: the run must change speed both ways", transitions)
			}
			if spans != transitions {
				t.Errorf("%d dtm.rpm_transition spans for %d transitions", spans, transitions)
			}
		})
	}
}

// runErr is a RunStream with its result dropped.
type runErr = func(*sim.Engine, sim.Source[disksim.Request], sim.Sink[disksim.Completion]) error

// errOnly drops a RunStream's result, keeping its error.
func errOnly[R any](run streamFunc[R]) runErr {
	return func(eng *sim.Engine, src sim.Source[disksim.Request], sink sim.Sink[disksim.Completion]) error {
		_, err := run(eng, src, sink)
		return err
	}
}

// TestRunStreamCtx checks the shared cancellation wrapper: a live context
// leaves the controller's result untouched, a cancelled one reports
// ctx.Err() and a zero result.
func TestRunStreamCtx(t *testing.T) {
	run := func(ctx context.Context) (Result, error) {
		disk, th := buildDTMDisk(t, 24534)
		reqs := dtmWorkload(t, disk.Layout().TotalSectors(), 300, 120)
		ctl := Controller{Disk: disk, Thermal: th}
		return RunStreamCtx(ctx, ctl.RunStream, sim.NewEngine(), sim.FromSlice(reqs), sim.Discard[disksim.Completion]())
	}
	live, err := run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	disk, th := buildDTMDisk(t, 24534)
	want, err := (&Controller{Disk: disk, Thermal: th}).RunStream(sim.NewEngine(),
		sim.FromSlice(dtmWorkload(t, disk.Layout().TotalSectors(), 300, 120)), sim.Discard[disksim.Completion]())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live, want) {
		t.Errorf("live context changed the result:\n%+v\n%+v", live, want)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled run returned %v, want context.Canceled", err)
	}
	if !reflect.DeepEqual(res, Result{}) {
		t.Errorf("cancelled run returned a non-zero result %+v", res)
	}
}

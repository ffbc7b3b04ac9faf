package server

import (
	"context"
	"fmt"
	"time"

	"repro/internal/disksim"
	"repro/internal/raid"
	"repro/internal/reliability"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

const (
	defaultRAIDRequests = 2000
	defaultRAIDFailAtMS = 5000
)

// raidSampleLine is an in-flight progress line, kind "sample", split into
// the healthy/degraded service populations.
type raidSampleLine struct {
	Kind          string  `json:"kind"`
	Completed     int     `json:"completed"`
	SimMillis     float64 `json:"sim_ms"`
	Degraded      int     `json:"degraded"`
	HealthyMeanMS float64 `json:"healthy_mean_ms"`
	DegradedMean  float64 `json:"degraded_mean_ms"`
}

// raidEventLine is one recovery-engine fault event, kind "event".
type raidEventLine struct {
	Kind      string  `json:"kind"`
	Event     string  `json:"event"`
	Disk      int     `json:"disk"`
	SimMillis float64 `json:"sim_ms"`
}

// raidReportLine is the terminal recovery report, kind "report".
type raidReportLine struct {
	Kind     string `json:"kind"`
	Workload string `json:"workload"`
	Level    string `json:"level"`
	Disks    int    `json:"disks"`
	FailDisk int    `json:"fail_disk"`

	Served          int     `json:"served"`
	Total           int     `json:"total"`
	Degraded        int     `json:"degraded"`
	Lost            int     `json:"lost,omitempty"`
	Reconstructions int     `json:"reconstructions"`
	ExposedWrites   int     `json:"exposed_writes"`
	HealthyMeanMS   float64 `json:"healthy_mean_ms"`
	DegradedMeanMS  float64 `json:"degraded_mean_ms"`

	RebuildWindowMS float64 `json:"rebuild_window_ms,omitempty"`
	RebuildRisk     float64 `json:"rebuild_risk,omitempty"`
	MTTDLHours      float64 `json:"mttdl_hours,omitempty"`
}

// run replays one workload with a member disk failed mid-run through the
// recovery engine, streaming fault events and the final report.
func (r *RAIDSpec) run(ctx context.Context, _ *Server, _ Spec, env runEnv) error {
	w, err := trace.WorkloadByName(r.Workload)
	if err != nil {
		return err
	}
	if r.Requests > 0 {
		w = w.WithRequests(r.Requests)
	} else {
		w = w.WithRequests(defaultRAIDRequests)
	}
	failAt := time.Duration(r.FailAtMS) * time.Millisecond
	if r.FailAtMS == 0 {
		failAt = defaultRAIDFailAtMS * time.Millisecond
	}

	vol, err := w.BuildVolume(w.BaselineRPM)
	if err != nil {
		return err
	}
	if r.FailDisk >= len(vol.Disks()) {
		return fmt.Errorf("workload %s has %d disks, cannot fail disk %d",
			w.Name, len(vol.Disks()), r.FailDisk)
	}
	vol.Disks()[r.FailDisk].SetFaults(disksim.FailAfter{T: failAt})
	src, err := w.Stream(vol.Capacity())
	if err != nil {
		return err
	}
	total := src.Remaining()
	var spares []*disksim.Disk
	if r.Spare {
		layout, err := w.MemberDiskLayout()
		if err != nil {
			return err
		}
		sp, err := disksim.New(disksim.Config{Layout: layout, RPM: w.BaselineRPM})
		if err != nil {
			return err
		}
		spares = append(spares, sp)
	}
	sess, err := raid.NewRecoverySession(vol, raid.RecoveryConfig{
		Reliability:     reliability.Default(),
		RebuildMBPerSec: r.RebuildMBPerSec,
	}, spares...)
	if err != nil {
		return err
	}

	var (
		healthy, degraded stats.Running
		count             int
		emitErr           error
	)
	sink := sim.SinkFunc[raid.Completion](func(c raid.Completion) {
		if c.Degraded {
			degraded.Add(c.Response())
		} else {
			healthy.Add(c.Response())
		}
		count++
		if emitErr == nil && r.SampleEvery > 0 && count%r.SampleEvery == 0 {
			emitErr = env.emit(raidSampleLine{
				Kind:          "sample",
				Completed:     count,
				SimMillis:     durMS(c.Finish),
				Degraded:      int(degraded.N()),
				HealthyMeanMS: healthy.Mean(),
				DegradedMean:  degraded.Mean(),
			})
		}
		if env.checkpointDue(count) {
			env.checkpoint(int64(count))
		}
	})
	eng := sim.NewEngine()
	eng.SetContext(ctx)
	if err := sess.RunStream(eng, src, sink); err != nil {
		return err
	}
	if emitErr != nil {
		return emitErr
	}
	rep := sess.Report()
	for _, e := range rep.Events {
		line := raidEventLine{
			Kind:      "event",
			Event:     fmt.Sprint(e.Kind),
			Disk:      e.Disk,
			SimMillis: durMS(e.Time),
		}
		if err := env.emit(line); err != nil {
			return err
		}
	}
	return env.emit(raidReportLine{
		Kind:            "report",
		Workload:        w.Name,
		Level:           fmt.Sprint(vol.Level()),
		Disks:           len(vol.Disks()),
		FailDisk:        r.FailDisk,
		Served:          int(healthy.N() + degraded.N()),
		Total:           total,
		Degraded:        rep.Degraded,
		Lost:            rep.LostRequests,
		Reconstructions: rep.Reconstructions,
		ExposedWrites:   rep.ExposedWrites,
		HealthyMeanMS:   healthy.Mean(),
		DegradedMeanMS:  degraded.Mean(),
		RebuildWindowMS: durMS(rep.RebuildWindow),
		RebuildRisk:     rep.RebuildRisk,
		MTTDLHours:      rep.MTTDL.Hours(),
	})
}

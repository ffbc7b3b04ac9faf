package integration

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/capacity"
	"repro/internal/disksim"
	"repro/internal/dtm"
	"repro/internal/raid"
	"repro/internal/reliability"
	"repro/internal/sim"
	"repro/internal/trace"
)

// streamRunner runs one streaming runner on eng over requests arriving at
// the given offsets, calling pushed on every completion its sink receives.
type streamRunner func(t *testing.T, eng *sim.Engine, at []time.Duration, pushed func()) error

// diskRequests spreads one request per arrival offset over a layout.
func diskRequests(layout *capacity.Layout, at []time.Duration) []disksim.Request {
	reqs := make([]disksim.Request, len(at))
	for i, a := range at {
		reqs[i] = disksim.Request{ID: int64(i), Arrival: a, LBN: int64(i) * 4096 % (layout.TotalSectors() - 8), Sectors: 8}
	}
	return reqs
}

// volumeRequests is diskRequests at the volume level.
func volumeRequests(vol *raid.Volume, at []time.Duration) []raid.Request {
	reqs := make([]raid.Request, len(at))
	for i, a := range at {
		reqs[i] = raid.Request{ID: int64(i), Arrival: a, Block: int64(i) * 4096 % (vol.Capacity() - 8), Sectors: 8}
	}
	return reqs
}

func contractVolume(t *testing.T) *raid.Volume {
	t.Helper()
	w := trace.Workloads[3]
	vol, err := w.BuildVolume(w.BaselineRPM)
	if err != nil {
		t.Fatal(err)
	}
	return vol
}

// streamRunners is every runner built on sim.Chain that serves requests.
var streamRunners = []struct {
	name string
	run  streamRunner
}{
	{"Disk.RunStream", func(t *testing.T, eng *sim.Engine, at []time.Duration, pushed func()) error {
		layout, _ := policyDrive(t)
		disk, err := disksim.New(disksim.Config{Layout: layout, RPM: dtm.AverageCaseRPM})
		if err != nil {
			t.Fatal(err)
		}
		return disk.RunStream(eng, sim.FromSlice(diskRequests(layout, at)),
			sim.SinkFunc[disksim.Completion](func(disksim.Completion) { pushed() }))
	}},
	{"Volume.RunStream", func(t *testing.T, eng *sim.Engine, at []time.Duration, pushed func()) error {
		vol := contractVolume(t)
		return vol.RunStream(eng, sim.FromSlice(volumeRequests(vol, at)),
			sim.SinkFunc[raid.Completion](func(raid.Completion) { pushed() }))
	}},
	{"RecoverySession.RunStream", func(t *testing.T, eng *sim.Engine, at []time.Duration, pushed func()) error {
		vol := contractVolume(t)
		s, err := raid.NewRecoverySession(vol, raid.RecoveryConfig{Reliability: reliability.Default()})
		if err != nil {
			t.Fatal(err)
		}
		return s.RunStream(eng, sim.FromSlice(volumeRequests(vol, at)),
			sim.SinkFunc[raid.Completion](func(raid.Completion) { pushed() }))
	}},
	{"Controller.RunStream", func(t *testing.T, eng *sim.Engine, at []time.Duration, pushed func()) error {
		layout, th := policyDrive(t)
		disk, err := disksim.New(disksim.Config{Layout: layout, RPM: dtm.AverageCaseRPM})
		if err != nil {
			t.Fatal(err)
		}
		ctl := dtm.Controller{Disk: disk, Thermal: th}
		_, err = ctl.RunStream(eng, sim.FromSlice(diskRequests(layout, at)),
			sim.SinkFunc[disksim.Completion](func(disksim.Completion) { pushed() }))
		return err
	}},
}

// TestStreamRunnerContract holds every chained runner to the skeleton's
// two contracts: an arrival that precedes its predecessor fails the run
// with sim.ErrOutOfOrder after serving only what came before it, and a
// context bound to the engine and cancelled by the sink on its k-th
// completion ends the run with context.Canceled and no further pushes.
func TestStreamRunnerContract(t *testing.T) {
	ms := func(v ...int) []time.Duration {
		out := make([]time.Duration, len(v))
		for i, x := range v {
			out[i] = time.Duration(x) * time.Millisecond
		}
		return out
	}
	for _, r := range streamRunners {
		t.Run(r.name+"/out-of-order", func(t *testing.T) {
			n := 0
			err := r.run(t, sim.NewEngine(), ms(20, 10, 30), func() { n++ })
			if !errors.Is(err, sim.ErrOutOfOrder) {
				t.Errorf("err = %v, want sim.ErrOutOfOrder", err)
			}
			if n != 1 {
				t.Errorf("%d completions reached the sink, want 1", n)
			}
		})
		t.Run(r.name+"/cancel", func(t *testing.T) {
			const k = 3
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			eng := sim.NewEngine()
			eng.SetContext(ctx)
			n := 0
			err := r.run(t, eng, ms(0, 5, 10, 15, 20, 25, 30), func() {
				n++
				if n == k {
					cancel()
				}
			})
			if !errors.Is(err, context.Canceled) {
				t.Errorf("err = %v, want context.Canceled", err)
			}
			if n != k {
				t.Errorf("%d completions reached the sink, want %d", n, k)
			}
		})
	}
}

// TestStreamRunnersRefuseReorderingSchedulers: the streaming runners serve
// FCFS, so a disk configured for SSTF, SPTF or LOOK is refused with an
// error naming the scheduler instead of being silently run FCFS.
func TestStreamRunnersRefuseReorderingSchedulers(t *testing.T) {
	layout, th := policyDrive(t)
	newDisk := func(s disksim.Scheduler) *disksim.Disk {
		d, err := disksim.New(disksim.Config{Layout: layout, RPM: dtm.AverageCaseRPM, Scheduler: s})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	reqs := diskRequests(layout, []time.Duration{0, time.Millisecond})
	sink := sim.Discard[disksim.Completion]()
	for _, s := range []disksim.Scheduler{disksim.SSTF, disksim.SPTF, disksim.LOOK} {
		want := s.String()
		check := func(name string, err error) {
			t.Helper()
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s with %v: err = %v, want one naming %s", name, s, err, want)
			}
		}
		check("Disk.RunStream", newDisk(s).RunStream(nil, sim.FromSlice(reqs), sink))
		_, err := (&dtm.Controller{Disk: newDisk(s), Thermal: th}).RunStream(nil, sim.FromSlice(reqs), sink)
		check("Controller.RunStream", err)

		members := []*disksim.Disk{newDisk(disksim.FCFS), newDisk(s)}
		vol, err := raid.New(raid.RAID1, members, 0)
		if err != nil {
			t.Fatal(err)
		}
		vreqs := volumeRequests(vol, []time.Duration{0, time.Millisecond})
		check("Volume.RunStream", vol.RunStream(nil, sim.FromSlice(vreqs), sim.Discard[raid.Completion]()))
		sess, err := raid.NewRecoverySession(vol, raid.RecoveryConfig{Reliability: reliability.Default()})
		if err != nil {
			t.Fatal(err)
		}
		check("RecoverySession.RunStream", sess.RunStream(nil, sim.FromSlice(vreqs), sim.Discard[raid.Completion]()))

		fcfs, err := raid.New(raid.RAID1, []*disksim.Disk{newDisk(disksim.FCFS), newDisk(disksim.FCFS)}, 0)
		if err != nil {
			t.Fatal(err)
		}
		sess, err = raid.NewRecoverySession(fcfs, raid.RecoveryConfig{Reliability: reliability.Default()}, newDisk(s))
		if err != nil {
			t.Fatal(err)
		}
		check("RecoverySession.RunStream spare", sess.RunStream(nil, sim.FromSlice(vreqs), sim.Discard[raid.Completion]()))

		// Simulate is the path that honours a reordering scheduler.
		if _, err := newDisk(s).Simulate(reqs); err != nil {
			t.Errorf("Disk.Simulate with %v: %v", s, err)
		}
	}
}

// Package integration exercises cross-module flows end to end: the full
// model chain (densities -> layout -> drive -> temperature), the simulation
// chain (trace -> RAID -> disks -> statistics), and the DTM chain (policy ->
// thermal transient -> reliability scoring). These tests pin the invariants
// the paper's argument rests on, across module boundaries.
package integration

import (
	"bytes"
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/capacity"
	"repro/internal/core"
	"repro/internal/disksim"
	"repro/internal/dtm"
	"repro/internal/perf"
	"repro/internal/power"
	"repro/internal/raid"
	"repro/internal/reliability"
	"repro/internal/scaling"
	"repro/internal/stats"
	"repro/internal/thermal"
	"repro/internal/trace"
	"repro/internal/units"
)

// TestModelChainRoadmapDrive walks the full chain for the 2005 roadmap
// drive: the scaling trend fixes densities, the capacity model derives the
// layout, perf turns it into a data rate, and thermal prices it — and the
// numbers must agree with the roadmap engine's own view of the same point.
func TestModelChainRoadmapDrive(t *testing.T) {
	m, err := core.RoadmapDrive(2005, 2.6, 1, 24527)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := scaling.Roadmap(scaling.Config{PlatterSizes: []units.Inches{2.6}})
	if err != nil {
		t.Fatal(err)
	}
	p := scaling.ByYearSize(pts)[2005][2.6]

	if math.Abs(float64(m.IDR())-float64(p.TargetIDR))/float64(p.TargetIDR) > 0.01 {
		t.Errorf("drive IDR %v vs roadmap target %v", m.IDR(), p.TargetIDR)
	}
	if m.Capacity() != p.Capacity {
		t.Errorf("drive capacity %v vs roadmap %v", m.Capacity(), p.Capacity)
	}
	temp := m.SteadyTemperature(1, thermal.DefaultAmbient)
	if math.Abs(float64(temp-p.RequiredTemp)) > 0.05 {
		t.Errorf("drive temperature %v vs roadmap %v", temp, p.RequiredTemp)
	}
	// 2005's required speed is over the envelope: the integrated model
	// agrees with the roadmap's verdict.
	if m.WithinEnvelope() {
		t.Error("the 2005 2.6\" required speed should exceed the envelope")
	}
}

// TestSimulationChainDeterminism runs the full Figure 4 pipeline twice and
// requires identical statistics — the whole stack is deterministic.
func TestSimulationChainDeterminism(t *testing.T) {
	w := trace.Workloads[3].WithRequests(5000) // TPC-C: RAID-5 + write-back
	run := func() core.WorkloadResult {
		res, err := core.Figure4(context.Background(), []trace.Params{w},
			core.Figure4Config{Steps: []units.RPM{10000}, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return res[0]
	}
	a, b := run(), run()
	if a.Steps[0].MeanMillis != b.Steps[0].MeanMillis {
		t.Errorf("non-deterministic means: %v vs %v", a.Steps[0].MeanMillis, b.Steps[0].MeanMillis)
	}
	for i := range a.Steps[0].CDF {
		if a.Steps[0].CDF[i] != b.Steps[0].CDF[i] {
			t.Fatalf("non-deterministic CDF at bucket %d", i)
		}
	}
}

// TestTraceCodecThroughSimulation generates a trace, round-trips it through
// the codec, and verifies the simulation outcome is identical.
func TestTraceCodecThroughSimulation(t *testing.T) {
	w := trace.Workloads[2].WithRequests(3000) // Search-Engine
	vol, err := w.BuildVolume(w.BaselineRPM)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := w.Generate(vol.Capacity())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, reqs); err != nil {
		t.Fatal(err)
	}
	back, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}

	mean := func(rs []raid.Request) float64 {
		v, err := w.BuildVolume(w.BaselineRPM)
		if err != nil {
			t.Fatal(err)
		}
		comps, err := v.Simulate(rs)
		if err != nil {
			t.Fatal(err)
		}
		var s stats.Sample
		for _, c := range comps {
			s.Add(c.Response())
		}
		return s.Mean()
	}
	if a, b := mean(reqs), mean(back); a != b {
		t.Errorf("codec round-trip changed the simulation: %v vs %v", a, b)
	}
}

// TestEnergyThermalConsistency: the power model's total at an operating
// point equals the heat the thermal model pushes to ambient at steady state
// (minus the electronics floor the thermal model excludes).
func TestEnergyThermalConsistency(t *testing.T) {
	pm, err := power.New(thermal.ReferenceDrive)
	if err != nil {
		t.Fatal(err)
	}
	th, err := thermal.New(thermal.ReferenceDrive)
	if err != nil {
		t.Fatal(err)
	}
	for _, rpm := range []units.RPM{15000, 24534, 37001} {
		b := pm.Active(rpm)
		mech := float64(b.Windage + b.Bearing + b.VCM)
		// The thermal network dissipates exactly the mechanical terms.
		want := float64(thermal.ViscousDissipation(rpm, 2.6, 1)) +
			float64(thermal.BearingLoss(rpm, 2.6)) +
			float64(thermal.VCMPower(2.6))
		if math.Abs(mech-want) > 1e-9 {
			t.Errorf("power/thermal disagree at %v: %v vs %v", rpm, mech, want)
		}
		_ = th
	}
}

// TestDTMReliabilityChain runs the watermark controller and scores its
// thermal profile with the reliability model: the controlled drive must age
// no faster than a drive pinned at the envelope.
func TestDTMReliabilityChain(t *testing.T) {
	if testing.Short() {
		t.Skip("long thermal-coupled run")
	}
	geom := thermal.ReferenceDrive
	bpi, tpi := scaling.DefaultTrend().Densities(2005)
	layout, err := capacity.New(capacity.Config{Geometry: geom, BPI: bpi, TPI: tpi, Zones: 50})
	if err != nil {
		t.Fatal(err)
	}
	disk, err := disksim.New(disksim.Config{Layout: layout, RPM: 24534})
	if err != nil {
		t.Fatal(err)
	}
	th, err := thermal.New(geom)
	if err != nil {
		t.Fatal(err)
	}
	warm := th.SteadyState(thermal.Load{RPM: 24534, VCMDuty: 0.62, Ambient: thermal.DefaultAmbient})
	ctl := dtm.Controller{Disk: disk, Thermal: th, Mode: dtm.VCMOnly, Initial: &warm}

	reqs := make([]disksim.Request, 20000)
	state := uint64(5)
	now := time.Duration(0)
	for i := range reqs {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		now += time.Duration(6+state%9) * time.Millisecond
		reqs[i] = disksim.Request{
			ID:      int64(i),
			Arrival: now,
			LBN:     int64(state % uint64(layout.TotalSectors()-8)),
			Sectors: 8,
		}
	}
	res, err := ctl.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}

	rel := reliability.Default()
	controlled := reliability.NewExposure(rel)
	controlled.Add(res.MaxAirTemp, time.Hour) // worst-case bound on the profile
	pinned := reliability.NewExposure(rel)
	pinned.Add(thermal.Envelope, time.Hour)
	ext, err := controlled.LifeExtension(pinned)
	if err != nil {
		t.Fatal(err)
	}
	// The controller's guard keeps MaxAirTemp at or below the envelope, so
	// even the worst-case bound ages no faster than the envelope profile
	// (tiny per-service overshoot tolerated).
	if ext < 0.99 {
		t.Errorf("controlled drive ages %.3fx faster than envelope operation", 1/ext)
	}
}

// TestSeekModelMatchesSimulator: the simulator's measured seek component for
// a known cylinder distance equals the perf model's prediction.
func TestSeekModelMatchesSimulator(t *testing.T) {
	bpi, tpi := scaling.DefaultTrend().Densities(2002)
	layout, err := capacity.New(capacity.Config{Geometry: thermal.ReferenceDrive, BPI: bpi, TPI: tpi, Zones: 50})
	if err != nil {
		t.Fatal(err)
	}
	d, err := disksim.New(disksim.Config{Layout: layout, RPM: 15000, CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	sm, err := perf.NewSeekModel(perf.SeekParamsForPlatter(2.6), layout.Cylinders)
	if err != nil {
		t.Fatal(err)
	}
	target := layout.Cylinders / 2
	lbn, err := layout.LBNOf(capacity.Location{Cylinder: target})
	if err != nil {
		t.Fatal(err)
	}
	c, err := d.Serve(disksim.Request{ID: 1, LBN: lbn, Sectors: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := sm.SeekTime(target); c.Parts.Seek != want {
		t.Errorf("simulator seek %v vs model %v", c.Parts.Seek, want)
	}
}

// TestEndToEndEnergyAccounting drives a workload and checks the energy
// ledger is internally consistent.
func TestEndToEndEnergyAccounting(t *testing.T) {
	bpi, tpi := scaling.DefaultTrend().Densities(2002)
	layout, err := capacity.New(capacity.Config{Geometry: thermal.ReferenceDrive, BPI: bpi, TPI: tpi, Zones: 50})
	if err != nil {
		t.Fatal(err)
	}
	d, err := disksim.New(disksim.Config{Layout: layout, RPM: 15000})
	if err != nil {
		t.Fatal(err)
	}
	var comps []disksim.Completion
	state := uint64(17)
	for i := 0; i < 500; i++ {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		c, err := d.Serve(disksim.Request{
			ID:      int64(i),
			Arrival: time.Duration(i) * 8 * time.Millisecond,
			LBN:     int64(state % uint64(layout.TotalSectors()-8)),
			Sectors: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		comps = append(comps, c)
	}
	pm, err := power.New(thermal.ReferenceDrive)
	if err != nil {
		t.Fatal(err)
	}
	acct := pm.AccountRun(15000, comps)
	if acct.Total() != acct.Spin+acct.Seek {
		t.Error("ledger does not add up")
	}
	// Sanity: a 4-second run of a ~9 W drive costs tens of joules.
	if j := float64(acct.Total()); j < 10 || j > 200 {
		t.Errorf("total energy %v J implausible for a %.1f s run", j, acct.Span.Seconds())
	}
}

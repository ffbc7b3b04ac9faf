package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/thermal"
	"repro/internal/trace"
	"repro/internal/units"
)

func TestFigure4Steps(t *testing.T) {
	steps := Figure4Steps(7200)
	want := []units.RPM{7200, 12200, 17200, 22200}
	for i := range want {
		if steps[i] != want[i] {
			t.Errorf("step %d = %v, want %v", i, steps[i], want[i])
		}
	}
}

func TestRoadmapDrive(t *testing.T) {
	m, err := RoadmapDrive(2002, 2.6, 1, 15000)
	if err != nil {
		t.Fatal(err)
	}
	// At the 2002 reference point the drive sits at the envelope.
	if temp := m.SteadyTemperature(1, thermal.DefaultAmbient); float64(temp) > float64(Envelope)+0.05 {
		t.Errorf("reference drive at %v", temp)
	}
	if _, err := RoadmapDrive(2002, 9.0, 1, 15000); err == nil {
		t.Error("oversized platter should be rejected")
	}
}

// figure4One runs a one-workload sweep and returns its panel.
func figure4One(t *testing.T, w trace.Params, cfg Figure4Config) WorkloadResult {
	t.Helper()
	res, err := Figure4(context.Background(), []trace.Params{w}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("%d panels for one workload", len(res))
	}
	return res[0]
}

func TestRunFigure4SmallRun(t *testing.T) {
	w := trace.Workloads[1].WithRequests(4000) // OLTP, 24 lightly-loaded disks
	res := figure4One(t, w, Figure4Config{})
	if len(res.Steps) != 4 {
		t.Fatalf("%d steps", len(res.Steps))
	}
	// Means fall monotonically with RPM.
	for i := 1; i < len(res.Steps); i++ {
		if res.Steps[i].MeanMillis >= res.Steps[i-1].MeanMillis {
			t.Errorf("mean did not fall at step %d: %.2f vs %.2f",
				i, res.Steps[i].MeanMillis, res.Steps[i-1].MeanMillis)
		}
	}
	// The CDF shifts left: every bucket's cumulative fraction grows.
	base, fastest := res.Steps[0].CDF, res.Steps[3].CDF
	for i := range base {
		if fastest[i] < base[i]-1e-9 {
			t.Errorf("CDF bucket %d regressed: %.3f -> %.3f", i, base[i], fastest[i])
		}
	}
	// Improvements are positive and increasing.
	imp := res.Improvements()
	if len(imp) != 3 {
		t.Fatalf("%d improvements", len(imp))
	}
	prev := 0.0
	for i, v := range imp {
		if v <= prev {
			t.Errorf("improvement %d = %.3f not increasing", i, v)
		}
		prev = v
	}
}

func TestRunFigure4StepsCustom(t *testing.T) {
	w := trace.Workloads[4].WithRequests(2000) // TPC-H
	res := figure4One(t, w, Figure4Config{Steps: []units.RPM{7200, 22200}, Workers: 1})
	if len(res.Steps) != 2 {
		t.Fatalf("%d steps", len(res.Steps))
	}
	if res.Steps[1].MeanMillis >= res.Steps[0].MeanMillis {
		t.Error("faster step should have lower mean")
	}
}

func TestFormatResult(t *testing.T) {
	w := trace.Workloads[4].WithRequests(500)
	res := figure4One(t, w, Figure4Config{Steps: []units.RPM{7200}, Workers: 1})
	out := FormatResult(res)
	if !strings.Contains(out, "TPC-H") || !strings.Contains(out, "mean=") {
		t.Errorf("bad format:\n%s", out)
	}
}

func TestRunAllFigure4Tiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all five workloads")
	}
	workloads := make([]trace.Params, len(trace.Workloads))
	for i, w := range trace.Workloads {
		workloads[i] = w.WithRequests(1500)
	}
	results, err := Figure4(context.Background(), workloads, Figure4Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("%d results", len(results))
	}
	for _, r := range results {
		imp := r.Improvements()
		// The paper's headline: 5k RPM buys 20-60% mean response time on
		// every workload. With tiny request counts the band is loose, but
		// every workload must improve.
		if imp[0] <= 0.05 {
			t.Errorf("%s: +5k RPM improvement only %.1f%%", r.Workload.Name, imp[0]*100)
		}
	}
}

func TestExperimentRegistry(t *testing.T) {
	opt := Options{Figure4Requests: 500}
	exps := Experiments(opt)
	if len(exps) < 12 {
		t.Fatalf("only %d experiments registered", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate id %q", e.ID)
		}
		seen[e.ID] = true
	}
	for _, want := range []string{"T1", "T3", "F2", "F4", "F5", "F7", "W4", "X5"} {
		if !seen[want] {
			t.Errorf("registry missing %s", want)
		}
	}
}

func TestRunByID(t *testing.T) {
	var buf strings.Builder
	if err := RunByID(&buf, "T2", Options{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"T2", "Cheetah X15", "55"} {
		if !strings.Contains(out, want) {
			t.Errorf("T2 output missing %q:\n%s", want, out)
		}
	}
	if err := RunByID(&buf, "nope", Options{}); err == nil {
		t.Error("unknown id should error")
	}
}

func TestRunQuickExperiments(t *testing.T) {
	// Every non-Figure-4 experiment runs to completion and writes output.
	for _, e := range Experiments(Options{Figure4Requests: 500}) {
		if e.ID == "F4" {
			continue // exercised separately at tiny scale
		}
		var buf strings.Builder
		if err := e.Run(&buf); err != nil {
			t.Errorf("%s: %v", e.ID, err)
			continue
		}
		if buf.Len() == 0 {
			t.Errorf("%s wrote nothing", e.ID)
		}
	}
}

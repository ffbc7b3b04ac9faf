package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/raid"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/units"
)

// differentialRequests sizes the batch-vs-stream differential: long enough
// that every workload fills its CDF tail, short enough to run in well under
// a second for all five workloads x four steps.
const differentialRequests = 20000

// sameBits reports whether a and b are the identical float64 (bit for bit,
// so -0 != +0 and a NaN only equals the same NaN).
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// diffStep compares two Figure 4 cells field by field at the bit level.
// withP95 selects whether P95Millis takes part (the P² estimate does not
// match the exact order statistic).
func diffStep(t *testing.T, label string, got, want RPMStep, withP95 bool) {
	t.Helper()
	if got.RPM != want.RPM {
		t.Errorf("%s: rpm %v, want %v", label, got.RPM, want.RPM)
	}
	if !sameBits(got.MeanMillis, want.MeanMillis) {
		t.Errorf("%s: mean %v, want %v", label, got.MeanMillis, want.MeanMillis)
	}
	if len(got.CDF) != len(want.CDF) {
		t.Errorf("%s: %d CDF buckets, want %d", label, len(got.CDF), len(want.CDF))
	} else {
		for i := range got.CDF {
			if !sameBits(got.CDF[i], want.CDF[i]) {
				t.Errorf("%s: CDF bucket %d = %v, want %v", label, i, got.CDF[i], want.CDF[i])
			}
		}
	}
	if !sameBits(got.CacheHitFraction, want.CacheHitFraction) {
		t.Errorf("%s: cache-hit fraction %v, want %v", label, got.CacheHitFraction, want.CacheHitFraction)
	}
	if withP95 && !sameBits(got.P95Millis, want.P95Millis) {
		t.Errorf("%s: p95 %v, want %v", label, got.P95Millis, want.P95Millis)
	}
}

// figure4Reference is the batch sweep the streaming runner replaced, kept
// as the differential reference: generate the trace once, replay the
// collected requests at every step with Volume.Simulate, and summarise the
// collected completions exactly.
func figure4Reference(t *testing.T, w trace.Params, steps []units.RPM) []RPMStep {
	t.Helper()
	probe, err := w.BuildVolume(steps[0])
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := w.Generate(probe.Capacity())
	if err != nil {
		t.Fatal(err)
	}
	out := make([]RPMStep, len(steps))
	for i, rpm := range steps {
		vol, err := w.BuildVolume(rpm)
		if err != nil {
			t.Fatal(err)
		}
		comps, err := vol.Simulate(reqs)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = summarizeStep(rpm, comps)
	}
	return out
}

// summarizeStep folds one RPM step's completions into the Figure 4 metrics.
func summarizeStep(rpm units.RPM, comps []raid.Completion) RPMStep {
	var sample stats.Sample
	var hits, subs int
	for _, c := range comps {
		sample.Add(c.Response())
		hits += c.CacheHits
		subs += c.SubRequests
	}
	step := RPMStep{
		RPM:        rpm,
		MeanMillis: sample.Mean(),
		CDF:        sample.Figure4CDF(),
		P95Millis:  sample.Percentile(95),
	}
	if subs > 0 {
		step.CacheHitFraction = float64(hits) / float64(subs)
	}
	return step
}

// TestFigure4StreamMatchesBatch pins the streaming sweep against the batch
// reference on every workload and every step of the paper's RPM sweep.
// With ExactP95 every field agrees bit for bit; with the P² estimate
// everything but P95Millis does.
func TestFigure4StreamMatchesBatch(t *testing.T) {
	workloads := make([]trace.Params, len(trace.Workloads))
	for i, w := range trace.Workloads {
		workloads[i] = w.WithRequests(differentialRequests)
	}
	p2, err := Figure4(context.Background(), workloads, Figure4Config{})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Figure4(context.Background(), workloads, Figure4Config{ExactP95: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			want := figure4Reference(t, w, Figure4Steps(w.BaselineRPM))
			for _, got := range []WorkloadResult{p2[i], exact[i]} {
				if len(got.Steps) != len(want) {
					t.Fatalf("%d steps, want %d", len(got.Steps), len(want))
				}
			}
			for j := range want {
				label := want[j].RPM.String()
				diffStep(t, label+" (P²)", p2[i].Steps[j], want[j], false)
				diffStep(t, label+" (exact)", exact[i].Steps[j], want[j], true)
			}
		})
	}
}

// TestFigure4OnStepOrder requires OnStep to see every cell of a
// multi-workload sweep in sweep order, workload by workload, at any worker
// count.
func TestFigure4OnStepOrder(t *testing.T) {
	workloads := []trace.Params{
		trace.Workloads[3].WithRequests(1000),
		trace.Workloads[4].WithRequests(1000),
	}
	for _, workers := range []int{1, 4} {
		var got []RPMStep
		res, err := Figure4(context.Background(), workloads, Figure4Config{
			Workers: workers,
			OnStep:  sim.SinkFunc[RPMStep](func(s RPMStep) { got = append(got, s) }),
		})
		if err != nil {
			t.Fatal(err)
		}
		var want []RPMStep
		for _, r := range res {
			want = append(want, r.Steps...)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: OnStep saw %d steps out of sweep order", workers, len(got))
		}
	}
}

// TestFigure4Cancelled requires a cancelled sweep to stop and return the
// context's error, whether it was cancelled before the start or between
// steps.
func TestFigure4Cancelled(t *testing.T) {
	w := trace.Workloads[3].WithRequests(1000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Figure4(ctx, []trace.Params{w, w}, Figure4Config{}); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled sweep: err = %v, want context.Canceled", err)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	pushed := 0
	_, err := Figure4(ctx, []trace.Params{w}, Figure4Config{
		Workers: 1,
		OnStep:  sim.SinkFunc[RPMStep](func(RPMStep) { pushed++; cancel() }),
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("mid-sweep cancel: err = %v, want context.Canceled", err)
	}
	if pushed != 1 {
		t.Errorf("%d steps delivered after cancelling at the first", pushed)
	}
}

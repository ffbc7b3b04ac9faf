package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"
)

// The smoke test runs every workload at tiny sizes. Run it from this
// directory with `go test ./...`.

// declared reads the workloads, and the metric names and units,
// BENCHMARK.json promises.
func declared(t *testing.T) (names []string, e2e, layers map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	e2e, layers = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layers[m.Name] = m.Unit
	}
	return names, e2e, layers
}

func tiny() options {
	return options{seed: 7, budget: 300 * time.Millisecond, small: true}
}

// TestEveryMetricEmitted checks that the declared workloads are exactly
// the ones with an end-to-end run, that the untraced run prints exactly the
// end-to-end metrics and the traced run exactly the per-layer metrics, each
// finite and with its declared unit, and that no check fails.
func TestEveryMetricEmitted(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	names, e2e, layers := declared(t)
	var runnable []string
	for _, w := range workloads {
		if w.e2e != nil {
			runnable = append(runnable, w.name)
		} else if _, err := measure(w.name, tiny(), true); err == nil {
			t.Errorf("%s has no end-to-end run but is accepted as --workload", w.name)
		}
	}
	if !slices.Equal(names, runnable) {
		t.Fatalf("BENCHMARK.json declares %v, the benchmark runs %v", names, runnable)
	}
	for _, wl := range names {
		for _, traced := range []bool{false, true} {
			want := e2e
			if traced {
				want = layers
			}
			r, err := measure(wl, tiny(), traced)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", wl, traced, err)
			}
			if r.failed != 0 {
				t.Errorf("%s traced=%t: %d of %d checks failed: %v", wl, traced, r.failed, r.attempted, r.failures)
			}
			for name, unit := range want {
				m, ok := r.metrics[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%t: metric %s missing", wl, traced, name)
				case m.Unit != unit:
					t.Errorf("%s traced=%t: metric %s has unit %q, want %q", wl, traced, name, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s traced=%t: metric %s = %v", wl, traced, name, m.Value)
				}
			}
			for name := range r.metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s traced=%t: metric %s is not declared", wl, traced, name)
				}
			}
		}
	}
}

// TestTracedOutputsMatchUntraced checks that tracing leaves every
// simulated output unchanged.
func TestTracedOutputsMatchUntraced(t *testing.T) {
	o := tiny()

	vb, err := newVolumeBench(o)
	if err != nil {
		t.Fatal(err)
	}
	vPlain, err := vb.replay(0, corruptNone, nil)
	if err != nil {
		t.Fatal(err)
	}
	vTraced, err := vb.replay(0, corruptNone, &streamSpans{})
	if err != nil {
		t.Fatal(err)
	}
	if vPlain.digest != vTraced.digest || vPlain.resp != vTraced.resp {
		t.Errorf("volume-tpcc: traced replay differs: %+v vs %+v", vTraced, vPlain)
	}

	db, err := newDTMBench(o)
	if err != nil {
		t.Fatal(err)
	}
	dPlain, _, err := db.replay(0, corruptNone, nil)
	if err != nil {
		t.Fatal(err)
	}
	dTraced, _, err := db.replay(0, corruptNone, &streamSpans{})
	if err != nil {
		t.Fatal(err)
	}
	if dPlain.digest != dTraced.digest || dPlain.res.MeanResponseMillis != dTraced.res.MeanResponseMillis ||
		dPlain.res.MaxAirTemp != dTraced.res.MaxAirTemp || dPlain.res.EarlyThrottles != dTraced.res.EarlyThrottles {
		t.Errorf("dtm-predictive: traced replay differs: %+v vs %+v", dTraced.res, dPlain.res)
	}

	fb := newFleetBench(o)
	fPlain, err := fb.replay(0, fleetWorkers, corruptNone, nil)
	if err != nil {
		t.Fatal(err)
	}
	fTraced, err := fb.replay(0, fleetWorkers, corruptNone, &rackSpans{})
	if err != nil {
		t.Fatal(err)
	}
	if fPlain.digest != fTraced.digest || fPlain.sum != fTraced.sum {
		t.Errorf("fleet-room: traced run differs: %+v vs %+v", fTraced.sum, fPlain.sum)
	}

	t.Setenv("TMPDIR", t.TempDir())
	sb, err := newSimdBench(o)
	if err != nil {
		t.Fatal(err)
	}
	r := newReport()
	sb.submit(r, nil)
	sb.submit(r, &httpSpans{})
	if err := sb.close(); err != nil {
		t.Fatal(err)
	}
	if r.attempted != 2 || r.failed != 0 {
		t.Errorf("simd-roadmap: %d of %d jobs differ from the direct roadmap rendering: %v", r.failed, r.attempted, r.failures)
	}
}

// TestBrokenOutputIsCounted tampers with one output of every timed job,
// never the warm-up, and checks that every timed job, and nothing else, is
// counted as failed. corruptAlter keeps every count right, so only the
// comparison of a job's digest with its warm-up digest can catch it.
func TestBrokenOutputIsCounted(t *testing.T) {
	warmups := map[string]int{"volume-tpcc": volumeInputs, "fleet-room": fleetInputs}
	for _, w := range workloads {
		if w.e2e == nil {
			continue
		}
		for _, c := range []corruption{corruptDrop, corruptAlter} {
			o := tiny()
			o.corrupt = c
			r, err := measure(w.name, o, false)
			if err != nil {
				t.Fatalf("%s corruption %d: %v", w.name, c, err)
			}
			if jobs := r.attempted - warmups[w.name]; jobs < 1 || r.failed != jobs {
				t.Errorf("%s corruption %d: %d of %d operations failed, want every one of the %d timed jobs: %v",
					w.name, c, r.failed, r.attempted, jobs, r.failures)
			}
		}
	}

	// The ledger-only workloads check their jobs the same way.
	for _, c := range []corruption{corruptDrop, corruptAlter} {
		o := tiny()
		o.corrupt = c
		db, err := newDTMBench(o)
		if err != nil {
			t.Fatal(err)
		}
		r := newReport()
		if err := db.warm(r); err != nil {
			t.Fatal(err)
		}
		db.job(o, r, 0, nil)
		if r.attempted != dtmInputs+1 || r.failed != 1 {
			t.Errorf("dtm-predictive corruption %d: %d of %d operations failed, want only the timed job: %v",
				c, r.failed, r.attempted, r.failures)
		}
	}

	t.Setenv("TMPDIR", t.TempDir())
	o := tiny()
	o.corrupt = corruptAlter
	sb, err := newSimdBench(o)
	if err != nil {
		t.Fatal(err)
	}
	r := newReport()
	sb.submit(r, nil)
	if err := sb.close(); err != nil {
		t.Fatal(err)
	}
	if r.attempted != 1 || r.failed != 1 {
		t.Errorf("simd-roadmap: a tampered job body passed its check (%d of %d failed)", r.failed, r.attempted)
	}
}

// Observability determinism: -metrics-out and -trace-out must be
// byte-identical at any worker count. The metric design (commutative
// counters, single-writer per-cell gauges, sorted snapshots) and the
// tracer design (per-step sub-tracers merged in input order) each carry
// half of that contract; these tests pin the composed result.
package integration

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
)

// renderObs runs the workloads' RPM sweeps with both sinks attached and
// renders the deterministic snapshot and span stream.
func renderObs(t *testing.T, workloads []trace.Params, workers int) (metrics, spans string) {
	t.Helper()
	reg := obs.NewRegistry()
	tr := obs.NewTracer(0)
	_, err := core.Figure4(context.Background(), workloads, core.Figure4Config{
		Workers: workers,
		Obs:     core.Observe{Registry: reg, Tracer: tr},
	})
	if err != nil {
		t.Fatal(err)
	}
	var m, s strings.Builder
	if err := obs.WriteNDJSON(&m, obs.Stable(reg.Snapshot())); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteSpans(&s, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	return m.String(), s.String()
}

// TestObsSnapshotBytesIdenticalAcrossWorkers is the acceptance contract:
// the NDJSON snapshot and the span stream from a -workers 1 run and a
// -workers 4 run must match byte for byte, for one workload and for two
// (whose per-workload sub-tracers nest the per-step ones).
func TestObsSnapshotBytesIdenticalAcrossWorkers(t *testing.T) {
	tpcc := trace.Workloads[3].WithRequests(1500) // TPC-C: smallest array
	tpch := trace.Workloads[4].WithRequests(1500)
	for _, workloads := range [][]trace.Params{{tpcc}, {tpcc, tpch}} {
		m1, s1 := renderObs(t, workloads, 1)
		m4, s4 := renderObs(t, workloads, 4)
		if m1 != m4 {
			t.Errorf("%d workloads: metric snapshots differ between worker counts:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", len(workloads), m1, m4)
		}
		if s1 != s4 {
			t.Errorf("%d workloads: span streams differ between worker counts (%d vs %d bytes)", len(workloads), len(s1), len(s4))
		}
		if m1 == "" || s1 == "" {
			t.Fatalf("%d workloads: observed run produced no output", len(workloads))
		}
	}
}

// TestObsMetricsMatchResults cross-checks the registry against the sweep's
// own summary: the per-step raid request counters must equal the request
// count, and the response histogram's n/sum must agree with the step mean.
func TestObsMetricsMatchResults(t *testing.T) {
	w := trace.Workloads[3].WithRequests(1500)
	reg := obs.NewRegistry()
	out, err := core.Figure4(context.Background(), []trace.Params{w}, core.Figure4Config{
		Workers: 2,
		Obs:     core.Observe{Registry: reg},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := out[0]
	byID := make(map[string]obs.Metric)
	for _, m := range reg.Snapshot() {
		byID[m.ID()] = m
	}
	for _, step := range res.Steps {
		rpm := strings.TrimSuffix(strings.ReplaceAll(step.RPM.String(), ",", ""), " RPM")
		var reqID string
		for id, m := range byID {
			if m.Name == "raid_requests_total" && m.Labels["rpm"] != "" &&
				strings.Contains(id, `workload="TPC-C"`) && labelRPM(m) == int(step.RPM) {
				reqID = id
			}
		}
		if reqID == "" {
			t.Fatalf("no raid_requests_total series for rpm %v (tried %q); have %d series", step.RPM, rpm, len(byID))
		}
		if got := byID[reqID].Count; got != 1500 {
			t.Errorf("rpm %v: raid_requests_total = %d, want 1500", step.RPM, got)
		}
		// Histogram mean must reproduce the step mean exactly: the same
		// additions flowed through both accumulators.
		for _, m := range byID {
			if m.Name == "raid_response_ms" && labelRPM(m) == int(step.RPM) {
				if m.N != 1500 {
					t.Errorf("rpm %v: histogram n = %d, want 1500", step.RPM, m.N)
				}
				if mean := m.Sum / float64(m.N); mean != step.MeanMillis {
					t.Errorf("rpm %v: histogram mean %v != step mean %v", step.RPM, mean, step.MeanMillis)
				}
			}
		}
	}
}

// labelRPM parses a metric's rpm label (0 when absent or malformed).
func labelRPM(m obs.Metric) int {
	v := m.Labels["rpm"]
	n := 0
	for _, r := range v {
		if r < '0' || r > '9' {
			return 0
		}
		n = n*10 + int(r-'0')
	}
	return n
}

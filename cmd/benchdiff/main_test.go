package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunGates pins the two gates: ns/op against the relative -tolerance,
// allocs/op exactly against the baseline plus the row's absolute
// allocs_slack, whatever the tolerance.
func TestRunGates(t *testing.T) {
	cases := []struct {
		name     string
		baseline string // one benchmarks row
		bench    string // go test -bench output
		tol      float64
		pass     bool
		status   string // expected in the output
	}{
		{
			name:     "allocs above baseline fail at a wide tolerance",
			baseline: `{"name": "BenchmarkX", "ns_per_op": 1000, "allocs_per_op": 64}`,
			bench:    "BenchmarkX-2 3 1000 ns/op 0 B/op 65 allocs/op",
			tol:      3.0,
			pass:     false,
			status:   "REGRESSED",
		},
		{
			name:     "allocs above baseline plus slack fail",
			baseline: `{"name": "BenchmarkX", "ns_per_op": 1000, "allocs_per_op": 30, "allocs_slack": 2}`,
			bench:    "BenchmarkX-2 3 1000 ns/op 0 B/op 33 allocs/op",
			tol:      3.0,
			pass:     false,
			status:   "REGRESSED (slack 2)",
		},
		{
			name:     "allocs within the slack pass",
			baseline: `{"name": "BenchmarkX", "ns_per_op": 1000, "allocs_per_op": 30, "allocs_slack": 2}`,
			bench:    "BenchmarkX-2 3 1000 ns/op 0 B/op 32 allocs/op",
			tol:      0.25,
			pass:     true,
			status:   "ok (slack 2)",
		},
		{
			name:     "zero-alloc baseline broken by one allocation fails",
			baseline: `{"name": "BenchmarkX", "ns_per_op": 1000, "allocs_per_op": 0}`,
			bench:    "BenchmarkX-2 3 1000 ns/op 8 B/op 1 allocs/op",
			tol:      3.0,
			pass:     false,
			status:   "REGRESSED",
		},
		{
			name:     "the best repetition's allocs are compared",
			baseline: `{"name": "BenchmarkX", "ns_per_op": 1000, "allocs_per_op": 30}`,
			bench: "BenchmarkX-2 3 1000 ns/op 0 B/op 31 allocs/op\n" +
				"BenchmarkX-2 3 1000 ns/op 0 B/op 30 allocs/op",
			tol:    0.25,
			pass:   true,
			status: "ok",
		},
		{
			name:     "fewer allocs are an improvement",
			baseline: `{"name": "BenchmarkX", "ns_per_op": 1000, "allocs_per_op": 39504}`,
			bench:    "BenchmarkX-2 3 1000 ns/op 0 B/op 24400 allocs/op",
			tol:      0.25,
			pass:     true,
			status:   "improved",
		},
		{
			name:     "ns/op within tolerance passes",
			baseline: `{"name": "BenchmarkX", "ns_per_op": 1000, "allocs_per_op": 5}`,
			bench:    "BenchmarkX-2 3 3900 ns/op 0 B/op 5 allocs/op",
			tol:      3.0,
			pass:     true,
			status:   "ok",
		},
		{
			name:     "ns/op beyond tolerance fails",
			baseline: `{"name": "BenchmarkX", "ns_per_op": 1000, "allocs_per_op": 5}`,
			bench:    "BenchmarkX-2 3 1300 ns/op 0 B/op 5 allocs/op",
			tol:      0.25,
			pass:     false,
			status:   "REGRESSED",
		},
		{
			name:     "ns/op is the best of the repetitions",
			baseline: `{"name": "BenchmarkX", "ns_per_op": 1000}`,
			bench: "BenchmarkX-2 3 5000 ns/op\n" +
				"BenchmarkX-2 3 1100 ns/op",
			tol:    0.25,
			pass:   true,
			status: "ok",
		},
		{
			name:     "sub-50ns baselines never gate on time",
			baseline: `{"name": "BenchmarkX", "ns_per_op": 10, "allocs_per_op": 0}`,
			bench:    "BenchmarkX-2 3 100 ns/op 0 B/op 0 allocs/op",
			tol:      0.25,
			pass:     true,
			status:   "ok (sub-noise)",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "BENCH_x.json")
			doc := `{"description": "test", "benchmarks": [` + c.baseline + `]}`
			if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			pass, err := run(&out, strings.NewReader(c.bench), []string{path}, c.tol)
			if err != nil {
				t.Fatal(err)
			}
			if pass != c.pass {
				t.Errorf("pass = %v, want %v\n%s", pass, c.pass, out.String())
			}
			if !strings.Contains(out.String(), c.status) {
				t.Errorf("output lacks %q:\n%s", c.status, out.String())
			}
		})
	}
}

// TestRunSkipsUnrunBenchmarks: a baseline row the run did not execute is
// listed as skipped and does not fail the gate.
func TestRunSkipsUnrunBenchmarks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_x.json")
	doc := `{"benchmarks": [{"name": "BenchmarkA", "ns_per_op": 100, "allocs_per_op": 0},
		{"name": "BenchmarkB", "ns_per_op": 100, "allocs_per_op": 0}]}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	pass, err := run(&out, strings.NewReader("BenchmarkA 3 90 ns/op 0 B/op 0 allocs/op"), []string{path}, 0.25)
	if err != nil || !pass {
		t.Fatalf("pass=%v err=%v\n%s", pass, err, out.String())
	}
	if !strings.Contains(out.String(), "BenchmarkB") || !strings.Contains(out.String(), "skipped") {
		t.Errorf("BenchmarkB not listed as skipped:\n%s", out.String())
	}
}

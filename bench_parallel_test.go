package repro

// The parallel sweep engine's benchmark harness: the same grids the paper
// regenerates, at 1/2/4/GOMAXPROCS workers (the design walk, which has no
// fan-out, sequentially), plus the thermal solve cache
// against the uncached direct path. Results feed BENCH_parallel.json:
// `go test -run '^$' -bench '^BenchmarkParallel' -benchtime 1x`.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/reliability"
	"repro/internal/scaling"
	"repro/internal/thermal"
	"repro/internal/trace"
	"repro/internal/units"
)

// workerCounts is the sweep of pool sizes each grid is timed at.
func workerCounts() []int {
	counts := []int{1, 2, 4}
	if n := parallel.Default(); n > 4 {
		counts = append(counts, n)
	}
	return counts
}

// BenchmarkParallelFigure4 times the full Figure 4 grid — every workload,
// every RPM step — at each worker count.
func BenchmarkParallelFigure4(b *testing.B) {
	workloads := make([]trace.Params, len(trace.Workloads))
	for i, w := range trace.Workloads {
		workloads[i] = w.WithRequests(20000)
	}
	for _, w := range workerCounts() {
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.Figure4(context.Background(), workloads, core.Figure4Config{Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				if len(res) != len(trace.Workloads) {
					b.Fatalf("got %d workloads", len(res))
				}
			}
		})
	}
}

// BenchmarkParallelRoadmap times the three-platter roadmap family (the
// Figure 2 regeneration) at each worker count and reports the thermal
// cache's steady-state hit rate.
func BenchmarkParallelRoadmap(b *testing.B) {
	for _, w := range workerCounts() {
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, platters := range []int{1, 2, 4} {
					if _, err := scaling.Roadmap(scaling.Config{Platters: platters, Workers: w}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkParallelDesignWalk times the section 4 walk. It has no worker
// fan-out: each year starts from the previous design, and the candidate
// scans inside one year are too small to amortise a hand-off.
func BenchmarkParallelDesignWalk(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := scaling.DesignWalk(scaling.WalkConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelMonteCarlo times the reliability estimator's batch
// fan-out at each worker count.
func BenchmarkParallelMonteCarlo(b *testing.B) {
	m := reliability.Default()
	window := 24 * 365 * time.Hour
	for _, w := range workerCounts() {
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			var est reliability.MCEstimate
			for i := 0; i < b.N; i++ {
				est = m.MonteCarloGroupFailure(reliability.ReferenceTemp+10, 5, window,
					reliability.MCConfig{Trials: 500_000, Seed: 1, Workers: w})
			}
			b.ReportMetric(est.Probability(), "p-fail")
		})
	}
}

// BenchmarkParallelSteadyCache replays the roadmap's operating points
// through one thermal model, cached vs direct — the memoization prong's
// single-core win. The cached pass repeats each point, as the real grids do
// (the roadmap solves each size's envelope point once per year cell).
func BenchmarkParallelSteadyCache(b *testing.B) {
	var points []thermal.Load
	for rpm := 15000.0; rpm <= 240000; rpm *= 1.12 {
		for _, duty := range []float64{0, 1} {
			points = append(points, thermal.Load{
				RPM:     units.RPM(rpm),
				VCMDuty: duty,
				Ambient: thermal.DefaultAmbient,
			})
		}
	}

	run := func(b *testing.B, noCache bool) {
		m, err := thermal.New(thermal.ReferenceDrive)
		if err != nil {
			b.Fatal(err)
		}
		m.NoCache = noCache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for rep := 0; rep < 11; rep++ {
				for _, l := range points {
					_ = m.SteadyState(l)
				}
			}
		}
		b.StopTimer()
		if !noCache {
			b.ReportMetric(m.CacheStats().SteadyHitRate(), "hit-rate")
		}
	}
	b.Run("direct", func(b *testing.B) { run(b, true) })
	b.Run("cached", func(b *testing.B) { run(b, false) })
}

// Command perfbench is the repository's benchmark. It runs one of two
// seeded workloads and prints every metric by name with its unit, then one
// JSON result line:
//
//	go run . --workload volume-tpcc --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run; with
// --trace 1 it reports the per-layer ledger from a traced run. Every run
// checks the simulator's outputs and counts the operations whose check
// failed. README.md explains the workloads and the metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"

	"repro/internal/drive"
)

// options are one run's inputs.
type options struct {
	seed   int64
	budget time.Duration // measured time
	small  bool          // tiny sizes, for the smoke test
	// corrupt tampers with one output of every timed job (never the
	// warm-up, which records the reference outputs) so that its check must
	// fail; the smoke test uses it to prove the checks can fail.
	corrupt corruption
}

// corruption is how a timed job's output is tampered with.
type corruption int

const (
	corruptNone  corruption = iota
	corruptDrop             // drop the first output, so counts fall short
	corruptAlter            // change one output value, counts stay right
)

// workload runs either the untraced end-to-end measurement or, for the
// traced run, its share of the per-layer ledger. home is false when the
// ledger is a short visit from another workload's traced run.
type workload struct {
	name string
	// e2e is nil for a workload that only contributes its ledger to the
	// traced runs; it cannot be named with --workload.
	e2e    func(o options, r *report) error
	ledger func(o options, r *report, home bool) error
}

// dtm-predictive and simd-roadmap have no end-to-end run: their host
// speed and job latencies swing with the host more than the benchmark's
// bounds allow (README.md), so they are not declared workloads. Their
// ledgers still keep the thermal, dtm, server, journal and scaling layers
// measured in every traced run.
var workloads = []workload{
	{"volume-tpcc", volumeE2E, volumeLedger},
	{"fleet-room", fleetE2E, fleetLedger},
	{"dtm-predictive", nil, dtmLedger},
	{"simd-roadmap", nil, simdLedger},
}

// homeShare is the part of a traced run's budget spent on its own
// workload's ledger; the other workloads share the rest, so every traced
// run prints the whole ledger.
const homeShare = 0.55

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run (per-layer ledger), 0 = untraced run (end-to-end)")
	flag.Parse()

	o := options{seed: *seed, budget: time.Duration(*seconds * float64(time.Second))}
	if err := run(os.Stdout, *name, o, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run measures one workload and writes the report.
func run(w io.Writer, name string, o options, traced bool) error {
	r, err := measure(name, o, traced)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d trace=%t seconds=%g\n", name, o.seed, traced, o.budget.Seconds())
	fmt.Fprintf(w, "# host %s\n", hostLine())
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(w, "%-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "failed_frac %g (%d of %d operations)\n", float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	for _, f := range r.failures {
		fmt.Fprintln(w, "# check failed:", f)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// measure runs the named workload untraced (end-to-end metrics) or traced
// (per-layer metrics).
func measure(name string, o options, traced bool) (*report, error) {
	var home *workload
	for i := range workloads {
		if workloads[i].name == name && workloads[i].e2e != nil {
			home = &workloads[i]
		}
	}
	if home == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	r := newReport()
	if !traced {
		if err := home.e2e(o, r); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		pct, err := modelErrPct()
		if err != nil {
			return nil, err
		}
		r.set("model_err_pct", pct, "%")
	} else {
		for _, w := range workloads {
			wo := o
			share := (1 - homeShare) / float64(len(workloads)-1)
			if w.name == name {
				share = homeShare
			}
			wo.budget = time.Duration(float64(o.budget) * share)
			if err := w.ledger(wo, r, w.name == name); err != nil {
				return nil, fmt.Errorf("%s ledger: %w", w.name, err)
			}
		}
	}
	if r.attempted == 0 {
		return nil, errors.New("no operation was checked")
	}
	for n, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is not finite", n)
		}
	}
	return r, nil
}

// modelErrPct is the worst relative error of the capacity model against
// the paper's own model column of Table 1, in percent: the accuracy figure
// that sits next to every simulated speed-up.
func modelErrPct() (float64, error) {
	worst := 0.0
	for _, v := range drive.Table1 {
		m, err := drive.New(v.Config())
		if err != nil {
			return 0, fmt.Errorf("table 1 %s: %w", v.Name, err)
		}
		rel := math.Abs(m.Capacity().GB()-v.PaperModelCapGB) / v.PaperModelCapGB
		worst = math.Max(worst, rel)
	}
	return worst * 100, nil
}

// setupBudget is the time spent repeating a workload's set-up for setup_s:
// a tenth of the run, at most two seconds.
func (o options) setupBudget() time.Duration { return min(o.budget/10, 2*time.Second) }

// setTraceOverhead reports how much slower the traced job ran than the
// untraced one, from interleaved runs of both.
func setTraceOverhead(r *report, untracedNs, tracedNs float64) {
	r.set("bench.trace_overhead_pct", (tracedNs/untracedNs-1)*100, "%")
}

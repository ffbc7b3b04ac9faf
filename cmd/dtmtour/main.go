// Command dtmtour runs the DTM policy tournament from the command line and
// streams the result as NDJSON: one "cell" line per (policy, workload,
// regime) result in enumeration order, then a single "summary" line. The
// flags become a simd tournament job spec, which runs through
// server.RunSpec — the code the daemon's tournament job runs — so the
// output is the simd job body by construction, and a spec simd would
// refuse is refused here with the same message. Output is byte-identical
// at every -workers value (the tournament determinism contract), which is
// what lets CI pin the bracket as a golden artifact. With -table, the same
// stream is decoded and printed as a human-readable scoreboard instead.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/server"
	"repro/internal/tournament"
)

func main() {
	var (
		policies  = flag.String("policies", "", "comma-separated entrants (empty = reactive,predictive,slack-ramp)")
		workloads = flag.String("workloads", "", "comma-separated trace workloads (empty = all five)")
		regimes   = flag.String("regimes", "", "comma-separated regimes (empty = clean,fault)")
		requests  = flag.Int("requests", 0, "requests per cell (0 = 4000)")
		seed      = flag.Int64("seed", 0, "request-stream seed (0 = 11)")
		lead      = flag.Duration("lead", 0, "predictive controller lead time (0 = policy default)")
		loadScale = flag.Float64("load-scale", 0, "arrival-rate multiplier (0 = 2)")
		workers   = flag.Int("workers", 0, "parallel cell fan-out (0 = 1)")
		table     = flag.Bool("table", false, "print a human-readable scoreboard instead of NDJSON")
	)
	flag.Parse()

	leadMS, err := server.WholeMS("lead", *lead)
	check(err)
	spec := server.Spec{Type: server.TypeTournament, Workers: *workers, Tournament: &server.TournamentSpec{
		Policies:   split(*policies),
		Workloads:  split(*workloads),
		Regimes:    split(*regimes),
		Requests:   *requests,
		Seed:       *seed,
		LeadTimeMS: leadMS,
		LoadScale:  *loadScale,
	}}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	if !*table {
		check(server.RunSpec(ctx, spec, os.Stdout))
		return
	}
	var stream bytes.Buffer
	check(server.RunSpec(ctx, spec, &stream))
	check(printTable(&stream))
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dtmtour:", err)
		os.Exit(1)
	}
}

func split(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// printTable renders the job's NDJSON stream as the scoreboard: one row per
// cell line, then the per-policy totals of the summary line.
func printTable(stream io.Reader) error {
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "WORKLOAD\tREGIME\tPOLICY\tMEAN ms\tP95 ms\tMAX °C\tOVER ms\tEVENTS\tFLAPS\tSCORE")
	var sum tournament.Summary
	for dec := json.NewDecoder(stream); dec.More(); {
		var line struct {
			Kind string `json:"kind"`
			tournament.Cell
			Policies []tournament.PolicyTotal `json:"policies"` // the summary line's
			Overall  string                   `json:"overall"`
		}
		if err := dec.Decode(&line); err != nil {
			return err
		}
		if line.Kind == "summary" {
			sum.Policies, sum.Overall = line.Policies, line.Overall
			continue
		}
		c, failed := line.Cell, ""
		if c.DiskFailed {
			failed = " †"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.2f\t%.2f\t%.2f\t%.0f\t%d\t%d\t%.2f%s\n",
			c.Workload, c.Regime, c.Policy, c.MeanMS, c.P95MS, c.MaxAirC,
			c.TimeOverMS, c.ThrottleEvents, c.Flaps, c.Score, failed)
	}
	fmt.Fprintln(tw)
	fmt.Fprintln(tw, "POLICY\tWINS\tMEAN ms\tOVER ms\tEVENTS\tFLAPS\tTOTAL SCORE")
	for _, p := range sum.Policies {
		fmt.Fprintf(tw, "%s\t%d\t%.2f\t%.0f\t%d\t%d\t%.2f\n",
			p.Policy, p.Wins, p.MeanMS, p.TimeOverMS, p.ThrottleEvents, p.Flaps, p.Score)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Printf("\noverall: %s († = drive failed)\n", sum.Overall)
	return nil
}

// Command benchdiff compares `go test -bench` output against the committed
// baseline files (BENCH_sim.json, BENCH_parallel.json) and fails when a
// benchmark regresses past the tolerance — the CI performance gate.
//
//	go test -run '^$' -bench . -benchmem -benchtime 3x -count 3 ./... > bench.txt
//	go run ./cmd/benchdiff -baseline BENCH_sim.json -baseline BENCH_parallel.json bench.txt
//
// Each benchmark's best (minimum) ns/op across -count repetitions is
// compared, which filters scheduler noise the way benchstat's min column
// does; ns/op regressions beyond -tolerance fail. allocs/op (also the best
// of the repetitions) is exact: it fails as soon as it exceeds the baseline
// plus the row's absolute "allocs_slack" (default 0), whatever -tolerance
// says. A row sets a slack only where repeated runs show spread, such as
// set-up cost amortised over b.N. Failures print a readable table;
// improvements are reported but never fail. Baseline entries the run did not execute are listed as
// skipped (CI shards run subsets), and trailing -N GOMAXPROCS suffixes are
// stripped so the same baseline serves any host width.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// baseline is one committed BENCH_*.json file.
type baseline struct {
	Description string `json:"description"`
	Benchmarks  []struct {
		Name        string   `json:"name"`
		NsPerOp     float64  `json:"ns_per_op"`
		BytesPerOp  *float64 `json:"bytes_per_op"`
		AllocsPerOp *float64 `json:"allocs_per_op"`
		AllocsSlack float64  `json:"allocs_slack"`
	} `json:"benchmarks"`
}

// measurement is the best observed run of one benchmark name.
type measurement struct {
	nsPerOp     float64
	allocsPerOp float64
	hasAllocs   bool
	count       int
}

// stringList lets -baseline repeat.
type stringList []string

func (s *stringList) String() string     { return strings.Join(*s, ",") }
func (s *stringList) Set(v string) error { *s = append(*s, v); return nil }

func main() {
	var baselines stringList
	flag.Var(&baselines, "baseline", "baseline JSON file (repeatable)")
	tolerance := flag.Float64("tolerance", 0.25, "maximum relative increase in ns/op before failing (allocs/op is exact)")
	flag.Parse()
	if len(baselines) == 0 || flag.NArg() > 1 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff -baseline BENCH_x.json [-baseline ...] [bench-output.txt]")
		fmt.Fprintln(os.Stderr, "compares each benchmark's best-of-count (minimum) ns/op against the baseline")
		os.Exit(2)
	}
	var in io.Reader = os.Stdin
	if flag.NArg() == 1 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	ok, err := run(os.Stdout, in, baselines, *tolerance)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// suffixRe matches the -N GOMAXPROCS suffix go test appends to names. It
// cannot be stripped blindly: sub-benchmarks like "workers-1" also end in
// -digits, so lookup() tries the exact name first and only then the
// suffixed form.
var suffixRe = regexp.MustCompile(`^-\d+$`)

// lookup finds a baseline name in the parsed run, tolerating a GOMAXPROCS
// suffix on the measured name.
func lookup(got map[string]measurement, name string) (measurement, bool) {
	if m, ok := got[name]; ok {
		return m, true
	}
	for k, m := range got {
		if strings.HasPrefix(k, name) && suffixRe.MatchString(k[len(name):]) {
			return m, true
		}
	}
	return measurement{}, false
}

// parseBench folds bench output into best-of-count measurements per name.
func parseBench(r io.Reader) (map[string]measurement, error) {
	out := make(map[string]measurement)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		m := measurement{nsPerOp: -1}
		// After the iteration count, the line is value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q on line %q", fields[i], sc.Text())
			}
			switch fields[i+1] {
			case "ns/op":
				m.nsPerOp = v
			case "allocs/op":
				m.allocsPerOp = v
				m.hasAllocs = true
			}
		}
		if m.nsPerOp < 0 {
			continue
		}
		prev, seen := out[name]
		if !seen || m.nsPerOp < prev.nsPerOp {
			prev.nsPerOp = m.nsPerOp
		}
		if m.hasAllocs && (!prev.hasAllocs || m.allocsPerOp < prev.allocsPerOp) {
			prev.allocsPerOp, prev.hasAllocs = m.allocsPerOp, true
		}
		prev.count++
		out[name] = prev
	}
	return out, sc.Err()
}

func run(w io.Writer, in io.Reader, baselinePaths []string, tol float64) (bool, error) {
	got, err := parseBench(in)
	if err != nil {
		return false, err
	}
	if len(got) == 0 {
		return false, fmt.Errorf("no benchmark lines in input")
	}

	pass := true
	var skipped []string
	fmt.Fprintf(w, "%-45s %14s %14s %8s  %s\n", "benchmark", "baseline", "measured", "delta", "status")
	for _, path := range baselinePaths {
		data, err := os.ReadFile(path)
		if err != nil {
			return false, err
		}
		var base baseline
		if err := json.Unmarshal(data, &base); err != nil {
			return false, fmt.Errorf("%s: %w", path, err)
		}
		for _, b := range base.Benchmarks {
			m, ok := lookup(got, b.Name)
			if !ok {
				skipped = append(skipped, b.Name)
				continue
			}
			delta := (m.nsPerOp - b.NsPerOp) / b.NsPerOp
			status := "ok"
			if delta > tol {
				// Sub-50ns baselines are harness-noise-dominated (a nil
				// branch, an atomic add): their time never gates, only
				// their allocs do.
				if b.NsPerOp < 50 {
					status = "ok (sub-noise)"
				} else {
					status, pass = "REGRESSED", false
				}
			} else if delta < -tol {
				status = "improved"
			}
			fmt.Fprintf(w, "%-45s %12.0fns %12.0fns %+7.1f%%  %s\n",
				b.Name, b.NsPerOp, m.nsPerOp, delta*100, status)
			if b.AllocsPerOp != nil && m.hasAllocs {
				want := *b.AllocsPerOp
				ad := 0.0
				if want > 0 {
					ad = (m.allocsPerOp - want) / want
				} else if m.allocsPerOp > 0 {
					ad = 1 // zero-alloc baseline broken by any allocation
				}
				astatus := "ok"
				switch {
				case m.allocsPerOp > want+b.AllocsSlack:
					astatus, pass = "REGRESSED", false
				case m.allocsPerOp < want:
					astatus = "improved"
				}
				if b.AllocsSlack > 0 {
					astatus += fmt.Sprintf(" (slack %g)", b.AllocsSlack)
				}
				fmt.Fprintf(w, "%-45s %12.0f a %12.0f a %+7.1f%%  %s\n",
					"  allocs/op", want, m.allocsPerOp, ad*100, astatus)
			}
		}
	}
	for _, name := range skipped {
		fmt.Fprintf(w, "%-45s %14s %14s %8s  skipped (not run)\n", name, "-", "-", "-")
	}
	if !pass {
		fmt.Fprintf(w, "\nbenchdiff: regression (ns/op beyond %.0f%% tolerance, or allocs/op above baseline + slack)\n", tol*100)
	}
	return pass, nil
}

package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/sim"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics and its output checks. Every check is one
// attempted operation; a check that does not hold is one failed operation.
type report struct {
	metrics   map[string]metric
	attempted int
	failed    int
	failures  []string // first few failure messages, for the log
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// check counts one operation and records a failure when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if ok {
		return
	}
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// fail records an operation that errored before it could be checked.
func (r *report) fail(err error) { r.check(false, "%v", err) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// medianTime runs fn repeatedly until budget is spent (at least minN
// samples, at most maxN) and returns the median wall time of one call, in
// seconds. Short calls are timed in batches so the clock read stays
// negligible.
func medianTime(budget time.Duration, minN, maxN int, fn func() error) (float64, error) {
	batch := 1
	t0 := time.Now()
	if err := fn(); err != nil {
		return 0, err
	}
	if one := time.Since(t0); one < 50*time.Microsecond {
		batch = int(50*time.Microsecond/(one+1)) + 1
	}
	var samples []float64
	start := time.Now()
	for len(samples) < maxN && (len(samples) < minN || time.Since(start) < budget) {
		t := time.Now()
		for i := 0; i < batch; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		samples = append(samples, time.Since(t).Seconds()/float64(batch))
	}
	return median(samples), nil
}

// medianSample runs fn, which times its own measured part, until budget
// is spent (at least minN samples, at most maxN) and returns the median in
// seconds.
func medianSample(budget time.Duration, minN, maxN int, fn func() (time.Duration, error)) (float64, error) {
	var samples []float64
	start := time.Now()
	for len(samples) < maxN && (len(samples) < minN || time.Since(start) < budget) {
		d, err := fn()
		if err != nil {
			return 0, err
		}
		samples = append(samples, d.Seconds())
	}
	return median(samples), nil
}

// jobLoop runs job(0), job(1), ... until budget has elapsed, and at least
// minJobs times. It returns each job's wall time in seconds. Jobs record
// their own errors as failed operations.
func jobLoop(budget time.Duration, minJobs int, job func(i int)) []float64 {
	var durs []float64
	start := time.Now()
	for i := 0; i < minJobs || time.Since(start) < budget; i++ {
		t := time.Now()
		job(i)
		durs = append(durs, time.Since(t).Seconds())
	}
	return durs
}

// nsPerOp converts job wall times into per-op nanoseconds (ops per job is
// fixed) and returns the median.
func nsPerOp(durs []float64, opsPerJob int) float64 {
	xs := make([]float64, len(durs))
	for i, d := range durs {
		xs[i] = d * 1e9 / float64(opsPerJob)
	}
	return median(xs)
}

// setOpsPerSecond reports the median per-job throughput from per-job wall
// times.
func setOpsPerSecond(r *report, durs []float64, opsPerJob int) {
	rates := make([]float64, len(durs))
	for i, d := range durs {
		rates[i] = float64(opsPerJob) / d
	}
	r.set("ops_per_s", median(rates), "1/s")
}

// heapAllocated reads the Go runtime's count of heap bytes allocated so
// far, to be differenced around a measured loop.
func heapAllocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// setAllocPerOp reports the heap bytes allocated per op, from byte counts
// summed over ops operations.
func setAllocPerOp(r *report, bytes uint64, ops int) {
	r.set("runtime.alloc_b_per_op", float64(bytes)/float64(ops), "B")
}

// maxRSSMB returns the process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// hostLine describes the machine a result was measured on.
func hostLine() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q go=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// digest is a running FNV-style hash over 64-bit words.
type digest uint64

func (d *digest) add(words ...uint64) {
	h := uint64(*d)
	if h == 0 {
		h = 14695981039346656037
	}
	for _, w := range words {
		h = (h ^ w) * 1099511628211
	}
	*d = digest(h)
}

// splitmix derives the k-th sub-seed of a run seed, so each input of a
// workload depends only on (seed, k).
func splitmix(seed int64, k int) int64 {
	z := uint64(seed) + uint64(k+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// streamSpans accumulates the host time spent inside a stream's source and
// sink calls during a traced replay. One call in spanEvery is timed, so the
// clock reads add little to the run, and each span is corrected by the
// cost of an empty span.
type streamSpans struct{ next, push span }

const spanEvery = 16

type span struct {
	ns, n, calls int64
}

// clockCost is the median duration an empty span reports, in ns: the part
// of a clock read that falls inside every span.
var clockCost = sync.OnceValue(func() int64 {
	ds := make([]float64, 4096)
	for i := range ds {
		t := time.Now()
		ds[i] = float64(time.Since(t))
	}
	return int64(median(ds))
})

// sampled counts a call and reports whether to time it.
func (s *span) sampled() bool {
	s.calls++
	return s.calls%spanEvery == 0
}

func (s *span) add(d time.Duration) {
	s.ns += int64(d) - clockCost()
	s.n++
}

// mean returns the mean sampled span, in ns.
func (s *span) mean() float64 { return float64(s.ns) / float64(s.n) }

type spanSource[T any] struct {
	src  sim.Source[T]
	span *span
}

func (s *spanSource[T]) Next() (T, bool) {
	if !s.span.sampled() {
		return s.src.Next()
	}
	t := time.Now()
	v, ok := s.src.Next()
	s.span.add(time.Since(t))
	return v, ok
}

type spanSink[T any] struct {
	sink sim.Sink[T]
	span *span
}

func (s *spanSink[T]) Push(v T) {
	if !s.span.sampled() {
		s.sink.Push(v)
		return
	}
	t := time.Now()
	s.sink.Push(v)
	s.span.add(time.Since(t))
}

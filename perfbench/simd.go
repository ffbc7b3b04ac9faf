package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/scaling"
	"repro/internal/server"
	"repro/internal/units"
)

// simd-roadmap: an in-process simd with a journal in a temporary
// directory, serving simload's default roadmap job over HTTP. It loads
// admission, the journal fsync, the queue, NDJSON streaming and HTTP; the
// simulation core does little. All load comes from this process over at
// most simdConns connections. It only contributes its ledger to the traced
// runs (see workloads in main.go).

const (
	simdSpec  = `{"type":"roadmap","roadmap":{"first_year":2002,"last_year":2006,"platter_sizes":[2.6]}}`
	simdConns = 2
	// simdOpenRate is the open loop's fixed offered rate, jobs/s: well
	// below the closed-loop capacity, so no backlog builds up.
	simdOpenRate = 50.0
)

// roadmapConfig is the scaling configuration the job spec above runs.
func roadmapConfig() scaling.Config {
	return scaling.Config{FirstYear: 2002, LastYear: 2006, PlatterSizes: []units.Inches{2.6}, Workers: 1}
}

// roadmapLines renders a roadmap the way simd's roadmap job does: one
// "point" line per cell and a closing "summary" line. The job's bytes must
// equal this rendering.
func roadmapLines(pts []scaling.Point) ([]byte, error) {
	type point struct {
		Kind           string  `json:"kind"`
		Year           int     `json:"year"`
		SizeInches     float64 `json:"size_inches"`
		Platters       int     `json:"platters"`
		TargetIDRMBps  float64 `json:"target_idr_mbps"`
		IDRDensityMBps float64 `json:"idr_density_mbps"`
		RequiredRPM    float64 `json:"required_rpm"`
		RequiredTempC  float64 `json:"required_temp_c"`
		MaxRPM         float64 `json:"max_rpm"`
		MaxIDRMBps     float64 `json:"max_idr_mbps"`
		CapacityGB     float64 `json:"capacity_gb"`
		MeetsTarget    bool    `json:"meets_target"`
	}
	type summary struct {
		Kind        string `json:"kind"`
		Points      int    `json:"points"`
		FalloffYear int    `json:"falloff_year"`
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, p := range pts {
		if err := enc.Encode(point{
			Kind: "point", Year: p.Year, SizeInches: float64(p.Size), Platters: p.Platters,
			TargetIDRMBps: float64(p.TargetIDR), IDRDensityMBps: float64(p.IDRDensity),
			RequiredRPM: float64(p.RequiredRPM), RequiredTempC: float64(p.RequiredTemp),
			MaxRPM: float64(p.MaxRPM), MaxIDRMBps: float64(p.MaxIDR),
			CapacityGB: p.Capacity.GB(), MeetsTarget: p.MeetsTarget,
		}); err != nil {
			return nil, err
		}
	}
	err := enc.Encode(summary{Kind: "summary", Points: len(pts), FalloffYear: scaling.FalloffYear(pts)})
	return buf.Bytes(), err
}

// simdBench is one running daemon and the client that drives it.
type simdBench struct {
	srv     *server.Server
	dir     string
	base    string
	client  *http.Client
	want    []byte
	corrupt bool

	mu sync.Mutex // guards the report the client goroutines check into
}

// startSimd builds a daemon with a fresh journal in dir and waits until
// /readyz answers 200.
func startSimd(dir string, client *http.Client) (*server.Server, string, error) {
	srv, err := server.New(server.Config{
		Addr:       "127.0.0.1:0",
		Workers:    2,
		JournalDir: dir,
		Logf:       func(string, ...any) {},
		Registry:   obs.NewRegistry(),
	})
	if err != nil {
		return nil, "", err
	}
	if err := srv.Start(); err != nil {
		srv.Shutdown(context.Background())
		return nil, "", err
	}
	base := "http://" + srv.Addr()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := client.Get(base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return srv, base, nil
			}
		}
		if time.Now().After(deadline) {
			stopSimd(srv, dir)
			return nil, "", fmt.Errorf("simd not ready after 10s (last error %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

func stopSimd(srv *server.Server, dir string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := srv.Shutdown(ctx)
	if rerr := os.RemoveAll(dir); err == nil {
		err = rerr
	}
	return err
}

func newSimdClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     simdConns,
			MaxIdleConnsPerHost: simdConns,
			DisableCompression:  true,
		},
	}
}

func newSimdBench(o options) (*simdBench, error) {
	pts, err := scaling.Roadmap(roadmapConfig())
	if err != nil {
		return nil, err
	}
	want, err := roadmapLines(pts)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "perfbench-simd-")
	if err != nil {
		return nil, err
	}
	client := newSimdClient()
	srv, base, err := startSimd(dir, client)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &simdBench{srv: srv, dir: dir, base: base, client: client, want: want, corrupt: o.corrupt != corruptNone}, nil
}

func (b *simdBench) close() error {
	b.client.CloseIdleConnections()
	return stopSimd(b.srv, b.dir)
}

// submit posts one synchronous roadmap job and checks its NDJSON body.
// With tr set, the first response byte and the end of the body are timed.
func (b *simdBench) submit(r *report, tr *httpSpans) {
	req, err := http.NewRequest("POST", b.base+"/v1/jobs", strings.NewReader(simdSpec))
	if err != nil {
		b.check(r, err, 0, nil)
		return
	}
	var start, first time.Time
	if tr != nil {
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			GotFirstResponseByte: func() { first = time.Now() },
		}))
		start = time.Now()
	}
	resp, err := b.client.Do(req)
	if err != nil {
		b.check(r, err, 0, nil)
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if tr != nil && err == nil {
		tr.add(first.Sub(start), time.Since(first))
	}
	b.check(r, err, resp.StatusCode, body)
}

func (b *simdBench) check(r *report, err error, code int, body []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.corrupt && len(body) > 0 {
		body = append([]byte(nil), body...)
		body[0] ^= 1
	}
	r.check(err == nil && code == http.StatusOK && bytes.Equal(body, b.want),
		"simd-roadmap job: status %d, error %v, %d body bytes (want %d)", code, err, len(body), len(b.want))
}

// httpSpans collects per-request client-side timings of traced jobs.
type httpSpans struct {
	mu         sync.Mutex
	ttfb, body []float64 // ms
}

func (h *httpSpans) add(ttfb, body time.Duration) {
	h.mu.Lock()
	h.ttfb = append(h.ttfb, ttfb.Seconds()*1e3)
	h.body = append(h.body, body.Seconds()*1e3)
	h.mu.Unlock()
}

// closedLoop runs simdConns clients, each submitting its next job when the
// previous one completes, for d and at least two jobs each. job(i) runs a
// client's i-th job.
func closedLoop(d time.Duration, job func(i int)) {
	var wg sync.WaitGroup
	end := time.Now().Add(d)
	for c := 0; c < simdConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2 || time.Now().Before(end); i++ {
				job(i)
			}
		}()
	}
	wg.Wait()
}

// openLoop offers jobs at simdOpenRate (seeded Poisson arrivals) for d,
// and at least ten, to simdConns senders. It returns how late the
// generator released each job, in ms.
func (b *simdBench) openLoop(r *report, d time.Duration, seed int64) (late []float64) {
	rng := rand.New(rand.NewSource(seed))
	var due []time.Duration
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / simdOpenRate * float64(time.Second))
		if t >= d && len(due) >= 10 {
			break
		}
		due = append(due, t)
	}
	start := time.Now()
	// Buffered to the schedule's length, so the generator never blocks
	// on busy senders and its lateness measures only itself.
	ch := make(chan struct{}, len(due))
	var wg sync.WaitGroup
	for c := 0; c < simdConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range ch {
				b.submit(r, nil)
			}
		}()
	}
	for _, off := range due {
		at := start.Add(off)
		time.Sleep(time.Until(at))
		late = append(late, time.Since(at).Seconds()*1e3)
		ch <- struct{}{}
	}
	close(ch)
	wg.Wait()
	return late
}

// simdLedger is simd-roadmap's part of the traced run: traced closed-loop
// jobs, a short open loop for the generator's lateness, then direct calls
// to the roadmap engine and the journal. simd-roadmap is never the traced
// run's own workload, so there is no untraced job to compare against.
func simdLedger(o options, r *report, _ bool) error {
	b, err := newSimdBench(o)
	if err != nil {
		return err
	}
	for i := 0; i < 20; i++ { // warm-up
		b.submit(r, nil)
	}
	var spans httpSpans
	closedLoop(o.budget/2, func(int) { b.submit(r, &spans) })
	r.set("server.ttfb_ms", median(spans.ttfb), "ms")
	r.set("server.body_ms", median(spans.body), "ms")
	late := b.openLoop(r, o.budget/5, o.seed)
	r.set("load.gen_late_p99_ms", quantile(late, 0.99), "ms")

	loop := o.budget * 3 / 10 / 2
	// A separate journal next to the daemon's, so the daemon's own
	// appends do not share its group commits.
	jr, _, err := journal.Open(filepath.Join(b.dir, "append"), journal.Options{})
	if err != nil {
		b.close()
		return err
	}
	rec := journal.Record{Kind: journal.KindState, Job: "bench", Status: "running"}
	appendS, err := medianSample(loop, 5, 100000, func() (time.Duration, error) {
		t := time.Now()
		err := jr.Append(rec)
		return time.Since(t), err
	})
	err = errors.Join(err, jr.Close(), b.close())
	if err != nil {
		return err
	}
	r.set("journal.append_us", appendS*1e6, "us")

	roadmap, err := medianTime(loop, 3, 1000, func() error {
		_, err := scaling.Roadmap(roadmapConfig())
		return err
	})
	if err != nil {
		return err
	}
	r.set("scaling.roadmap_ms", roadmap*1e3, "ms")
	return nil
}

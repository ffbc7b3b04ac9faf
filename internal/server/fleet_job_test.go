package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// smallFleetSpec is a fleet just big enough to stream several rack lines:
// 6 racks x 2 chassis x 4 slots = 48 drives, with placement, migration and
// a cooling failure all exercised so the resumed-run byte verification
// covers the whole feature surface.
func smallFleetSpec(workers int) string {
	spec := map[string]any{
		"type":    "fleet",
		"workers": workers,
		"fleet": map[string]any{
			"racks": 6, "chassis_per_rack": 2, "slots_per_chassis": 4,
			"requests_per_drive": 15,
			"seed":               7,
			"recirculation":      0.2,
			"placement":          "coolest",
			"migrate_at_c":       29,
			"hysteresis_c":       0.5,
			"cooling_failure": map[string]any{
				"rack": 1, "at_ms": 200, "duration_ms": 2000, "delta_c": 12,
			},
		},
	}
	b, err := json.Marshal(spec)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// TestFleetJobStreamsNDJSON runs a fleet job synchronously and pins the
// stream shape: one "rack" line per rack, in rack order, then a single
// "summary" line whose totals match the rack lines.
func TestFleetJobStreamsNDJSON(t *testing.T) {
	s := mustNew(t, testConfig())
	defer s.Shutdown(context.Background())

	w := postJob(t, s.Handler(), smallFleetSpec(2), "")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200; body %s", w.Code, w.Body.String())
	}

	var (
		racks     []map[string]any
		summaries []map[string]any
	)
	sc := bufio.NewScanner(bytes.NewReader(w.Body.Bytes()))
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch m["kind"] {
		case "rack":
			racks = append(racks, m)
		case "summary":
			summaries = append(summaries, m)
		default:
			t.Fatalf("unexpected line kind %v: %s", m["kind"], sc.Text())
		}
	}
	if len(racks) != 6 || len(summaries) != 1 {
		t.Fatalf("got %d rack lines and %d summaries, want 6 and 1", len(racks), len(summaries))
	}
	var requests float64
	for i, r := range racks {
		if int(r["rack"].(float64)) != i {
			t.Fatalf("rack line %d out of order: %v", i, r["rack"])
		}
		requests += r["requests"].(float64)
	}
	sum := summaries[0]
	if got := sum["requests"].(float64); got != requests {
		t.Fatalf("summary requests %v != rack total %v", got, requests)
	}
	if sum["drives"].(float64) != 48 {
		t.Fatalf("summary drives = %v, want 48", sum["drives"])
	}
	if sum["migrations"].(float64) == 0 {
		t.Fatal("migration policy never fired in the server fixture")
	}
}

// TestFleetJobWorkerInvariance is the serving-layer half of the sharding
// contract: the NDJSON body of the same seeded fleet spec is byte-identical
// whether the job fans out over 1 or 8 internal workers.
func TestFleetJobWorkerInvariance(t *testing.T) {
	s := mustNew(t, testConfig())
	defer s.Shutdown(context.Background())

	w1 := postJob(t, s.Handler(), smallFleetSpec(1), "")
	if w1.Code != http.StatusOK {
		t.Fatalf("workers=1 status = %d: %s", w1.Code, w1.Body.String())
	}
	w8 := postJob(t, s.Handler(), smallFleetSpec(8), "")
	if w8.Code != http.StatusOK {
		t.Fatalf("workers=8 status = %d: %s", w8.Code, w8.Body.String())
	}
	if !bytes.Equal(w1.Body.Bytes(), w8.Body.Bytes()) {
		t.Fatalf("fleet result bytes differ across worker counts:\n%s\nvs\n%s",
			w1.Body.String(), w8.Body.String())
	}
}

// TestFleetJobCancel cancels a running fleet job and checks it lands in
// cancelled with the in-band error line, promptly.
func TestFleetJobCancel(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	s := mustNew(t, cfg)
	defer s.Shutdown(context.Background())

	// Enough racks that the run is still in flight when the cancel lands.
	body := `{"type":"fleet","fleet":{"racks":40,"chassis_per_rack":4,"slots_per_chassis":8,"requests_per_drive":40}}`
	w, info := submitAsync(t, s, body, "")
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit = %d", w.Code)
	}
	j, ok := s.lookup(info.ID)
	if !ok {
		t.Fatal("job vanished")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st, _ := j.snapshot(); st == StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("fleet job never started")
		}
		time.Sleep(time.Millisecond)
	}

	req := httptest.NewRequest("DELETE", "/v1/jobs/"+info.ID, nil)
	rec := httptest.NewRecorder()
	start := time.Now()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("cancel = %d, want 202", rec.Code)
	}
	if st := waitStatus(t, s, info.ID); st != StatusCancelled && st != StatusDone {
		t.Fatalf("cancelled fleet job = %q", st)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("cancellation took %v; runner not honouring ctx", took)
	}
}

// TestFleetCrashResumeByteIdentity is the fleet acceptance contract on the
// crash path: a fleet job killed mid-run (simulated SIGKILL: journaling
// stops dead) resumes after restart from its last rack-boundary checkpoint
// and produces NDJSON byte-identical to an uninterrupted run.
func TestFleetCrashResumeByteIdentity(t *testing.T) {
	body := smallFleetSpec(2)

	want := referenceResult(t, body)

	cfg := testConfig()
	cfg.JournalDir = t.TempDir()
	cfg.Workers = 1
	// Two rack checkpoints are on disk when the crash lands.
	id := crashAtCheckpoint(t, cfg, body, "fleet-crash-key", 2)

	cfg2 := testConfig()
	cfg2.JournalDir = cfg.JournalDir
	s2 := mustNew(t, cfg2)
	defer s2.Shutdown(context.Background())

	if got := s2.met.jobsResumed.Value(); got != 1 {
		t.Fatalf("jobsResumed = %d, want 1", got)
	}
	if st := waitStatus(t, s2, id); st != StatusDone {
		j2, _ := s2.lookup(id)
		_, errMsg := j2.snapshot()
		t.Fatalf("resumed fleet job = %q (%s), want done", st, errMsg)
	}
	got := getResult(t, s2, id)
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed fleet result is not byte-identical (%d vs %d bytes)", len(got), len(want))
	}
}

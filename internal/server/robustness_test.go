package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/journal"
)

// submitAsync posts a spec with ?async=1 (optionally with an idempotency
// key) and decodes the Info body.
func submitAsync(t *testing.T, s *Server, body, key string) (*httptest.ResponseRecorder, Info) {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/jobs?async=1", strings.NewReader(body))
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	var info Info
	if w.Code == http.StatusAccepted || w.Code == http.StatusOK {
		if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
			t.Fatalf("decode info: %v (body %s)", err, w.Body.String())
		}
	}
	return w, info
}

// waitStatus polls a job until it reaches a terminal state.
func waitStatus(t *testing.T, s *Server, id string) Status {
	t.Helper()
	j, ok := s.lookup(id)
	if !ok {
		t.Fatalf("job %s vanished", id)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if st, _ := j.snapshot(); st.terminal() {
			return st
		}
		if time.Now().After(deadline) {
			st, _ := j.snapshot()
			t.Fatalf("job %s stuck in %q", id, st)
		}
		time.Sleep(time.Millisecond)
	}
}

// getResult fetches a finished job's buffered result bytes.
func getResult(t *testing.T, s *Server, id string) []byte {
	t.Helper()
	req := httptest.NewRequest("GET", "/v1/jobs/"+id+"/result", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("result %s = %d: %s", id, w.Code, w.Body.String())
	}
	b, err := io.ReadAll(w.Result().Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWorkerPanicContained is the satellite contract: a panicking runner
// fails its own job with the panic message and the daemon keeps serving.
func TestWorkerPanicContained(t *testing.T) {
	cfg := testConfig()
	c := chaos.New(1)
	c.On("job.panic", 1) // only the first dispatched job panics
	cfg.Chaos = c
	cfg.Workers = 1 // deterministic dispatch order
	s := mustNew(t, cfg)
	defer s.Shutdown(context.Background())

	w, info := submitAsync(t, s, smallRoadmapSpec(), "")
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit = %d", w.Code)
	}
	if st := waitStatus(t, s, info.ID); st != StatusFailed {
		t.Fatalf("panicked job status = %q, want failed", st)
	}
	j, _ := s.lookup(info.ID)
	if _, errMsg := j.snapshot(); !strings.Contains(errMsg, "job panicked") ||
		!strings.Contains(errMsg, "injected worker panic") {
		t.Fatalf("error = %q, want panic message", errMsg)
	}
	if string(getResult(t, s, info.ID)) == "" {
		t.Fatal("failed job has no in-band error line")
	}
	if got := s.met.panics.Value(); got != 1 {
		t.Fatalf("panics counter = %d, want 1", got)
	}

	// The pool survived: the next job runs to completion.
	w2, info2 := submitAsync(t, s, smallRoadmapSpec(), "")
	if w2.Code != http.StatusAccepted {
		t.Fatalf("second submit = %d", w2.Code)
	}
	if st := waitStatus(t, s, info2.ID); st != StatusDone {
		t.Fatalf("job after panic = %q, want done", st)
	}
}

// TestReadyzStates checks the three-way lifecycle surface: replaying and
// draining both answer 503, distinguished by the state= body field.
func TestReadyzStates(t *testing.T) {
	readyz := func(s *Server) (int, string) {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/readyz", nil))
		return w.Code, w.Body.String()
	}

	cfg := testConfig()
	cfg.JournalDir = t.TempDir()
	s := newServer(cfg) // journal not opened yet: still replaying
	if code, body := readyz(s); code != http.StatusServiceUnavailable || !strings.Contains(body, "state=replaying") {
		t.Fatalf("replaying readyz = %d %q, want 503 state=replaying", code, body)
	}
	// Submissions during replay bounce with 503, not 429.
	if w, _ := submitAsync(t, s, smallRoadmapSpec(), ""); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit during replay = %d, want 503", w.Code)
	}

	if err := s.openJournal(); err != nil {
		t.Fatal(err)
	}
	if code, body := readyz(s); code != http.StatusOK || !strings.Contains(body, "state=ready") {
		t.Fatalf("ready readyz = %d %q, want 200 state=ready", code, body)
	}

	s.beginDrain()
	if code, body := readyz(s); code != http.StatusServiceUnavailable || !strings.Contains(body, "state=draining") {
		t.Fatalf("draining readyz = %d %q, want 503 state=draining", code, body)
	}
	s.jrnl.Close()
}

// TestIdempotencyKeyDedup: a second submission under the same key attaches
// to the original job instead of running the work twice.
func TestIdempotencyKeyDedup(t *testing.T) {
	s := mustNew(t, testConfig())
	defer s.Shutdown(context.Background())

	w1, info1 := submitAsync(t, s, smallRoadmapSpec(), "key-a")
	if w1.Code != http.StatusAccepted {
		t.Fatalf("first submit = %d", w1.Code)
	}
	w2, info2 := submitAsync(t, s, smallRoadmapSpec(), "key-a")
	if w2.Code != http.StatusOK {
		t.Fatalf("duplicate submit = %d, want 200", w2.Code)
	}
	if w2.Header().Get("X-Idempotent-Replay") != "true" {
		t.Fatal("duplicate submit missing X-Idempotent-Replay header")
	}
	if info2.ID != info1.ID {
		t.Fatalf("duplicate got job %s, want %s", info2.ID, info1.ID)
	}
	w3, info3 := submitAsync(t, s, smallRoadmapSpec(), "key-b")
	if w3.Code != http.StatusAccepted || info3.ID == info1.ID {
		t.Fatalf("distinct key: %d job %s, want 202 and a new job", w3.Code, info3.ID)
	}
	if st := waitStatus(t, s, info1.ID); st != StatusDone {
		t.Fatalf("deduped job = %q", st)
	}
}

// TestJournalSubmitFailure503: if the admission record cannot be made
// durable, the submission is refused (503 + Retry-After) and leaves no
// trace — the same idempotency key is reusable immediately.
func TestJournalSubmitFailure503(t *testing.T) {
	cfg := testConfig()
	cfg.JournalDir = t.TempDir()
	c := chaos.New(5)
	c.On(chaos.OpWrite, 1) // first journal append fails
	cfg.Chaos = c
	s := mustNew(t, cfg)
	defer s.Shutdown(context.Background())

	w, _ := submitAsync(t, s, smallRoadmapSpec(), "key-x")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit with failing journal = %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if got := s.met.journalAppendErrors.Value(); got != 1 {
		t.Fatalf("journalAppendErrors = %d, want 1", got)
	}

	// Retry under the same key succeeds and runs.
	w2, info := submitAsync(t, s, smallRoadmapSpec(), "key-x")
	if w2.Code != http.StatusAccepted {
		t.Fatalf("retry = %d, want 202: %s", w2.Code, w2.Body.String())
	}
	if st := waitStatus(t, s, info.ID); st != StatusDone {
		t.Fatalf("retried job = %q", st)
	}
}

// TestJournalPersistence: completed jobs, their result bytes, and their
// idempotency keys all survive a graceful restart.
func TestJournalPersistence(t *testing.T) {
	cfg := testConfig()
	cfg.JournalDir = t.TempDir()
	s1 := mustNew(t, cfg)

	w, info := submitAsync(t, s1, smallRoadmapSpec(), "persist-key")
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit = %d", w.Code)
	}
	if st := waitStatus(t, s1, info.ID); st != StatusDone {
		t.Fatalf("job = %q", st)
	}
	want := getResult(t, s1, info.ID)
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	cfg2 := testConfig()
	cfg2.JournalDir = cfg.JournalDir
	s2 := mustNew(t, cfg2)
	defer s2.Shutdown(context.Background())

	if st := waitStatus(t, s2, info.ID); st != StatusDone {
		t.Fatalf("replayed job = %q, want done", st)
	}
	if got := getResult(t, s2, info.ID); string(got) != string(want) {
		t.Fatalf("replayed result differs:\n--- before ---\n%s\n--- after ---\n%s", want, got)
	}
	if got := s2.met.jobsReplayed.Value(); got != 1 {
		t.Fatalf("jobsReplayed = %d, want 1", got)
	}
	// The key still points at the original job across the restart.
	w2, info2 := submitAsync(t, s2, smallRoadmapSpec(), "persist-key")
	if w2.Code != http.StatusOK || info2.ID != info.ID {
		t.Fatalf("post-restart dedup: %d job %s, want 200 %s", w2.Code, info2.ID, info.ID)
	}
	// New submissions never collide with replayed ids.
	w3, info3 := submitAsync(t, s2, smallRoadmapSpec(), "")
	if w3.Code != http.StatusAccepted || info3.ID == info.ID {
		t.Fatalf("fresh submit: %d job %s collides with %s", w3.Code, info3.ID, info.ID)
	}
}

// TestReplayOverflowBacklog: a crash can leave far more non-terminal jobs
// in the journal than the bounded queue holds. They are acknowledged work,
// so restart must not fail the overflow — it waits in the backlog and runs
// as workers free queue slots, while new submissions yield with 429.
func TestReplayOverflowBacklog(t *testing.T) {
	dir := t.TempDir()
	// Seed a journal directly with 10 queued submits — no server involved,
	// so nothing can drain them before the restart under test.
	jrnl, _, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := json.RawMessage(smallRoadmapSpec())
	const n = 10
	for i := 1; i <= n; i++ {
		rec := journal.Record{
			Kind: journal.KindSubmit,
			Job:  fmt.Sprintf("job-%d", i),
			Key:  fmt.Sprintf("overflow-%d", i),
			Spec: spec,
		}
		if err := jrnl.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := jrnl.Close(); err != nil {
		t.Fatal(err)
	}

	cfg := testConfig()
	cfg.JournalDir = dir
	cfg.QueueDepth = 2 // far below the journaled job count
	cfg.Workers = 1
	s := mustNew(t, cfg)
	defer s.Shutdown(context.Background())

	for i := 1; i <= n; i++ {
		id := fmt.Sprintf("job-%d", i)
		if st := waitStatus(t, s, id); st != StatusDone {
			j, _ := s.lookup(id)
			_, errMsg := j.snapshot()
			t.Fatalf("replayed job %s = %q (%s), want done", id, st, errMsg)
		}
	}
	if got := s.met.jobsReplayed.Value(); got != n {
		t.Fatalf("jobsReplayed = %d, want %d", got, n)
	}
}

// TestJournalFailureUnblocksAttacher: register publishes the key→job
// binding before the journal append runs, so a concurrent same-key
// submission can attach to the job and block on its result stream. If the
// journal append then fails, backing the job out must close its buffer so
// the attacher unblocks with the failure instead of hanging until its own
// context dies — while the key itself is freed for a clean retry.
func TestJournalFailureUnblocksAttacher(t *testing.T) {
	cfg := testConfig()
	cfg.JournalDir = t.TempDir()
	s := mustNew(t, cfg)
	defer s.Shutdown(context.Background())

	var spec Spec
	if err := json.Unmarshal([]byte(smallRoadmapSpec()), &spec); err != nil {
		t.Fatal(err)
	}
	j, existing := s.register(spec, "attach-key")
	if existing {
		t.Fatal("fresh key reported existing")
	}
	// The attacher: a second submission that found the binding and is now
	// waiting for the job's first result line.
	j2, existing2 := s.register(spec, "attach-key")
	if !existing2 || j2 != j {
		t.Fatalf("attacher got job %v existing=%v, want the original", j2, existing2)
	}
	unblocked := make(chan bool, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		unblocked <- j2.buf.waitFirst(ctx)
	}()

	// The first submission's journal append fails.
	s.rejectUnjournaled(j, errors.New("injected append failure"))

	select {
	case ok := <-unblocked:
		if !ok {
			t.Fatal("attacher timed out instead of observing the failure")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("attacher still blocked after rejectUnjournaled")
	}
	if st, errMsg := j.snapshot(); st != StatusFailed || !strings.Contains(errMsg, "journal unavailable") {
		t.Fatalf("backed-out job = %q (%s), want failed with journal error", st, errMsg)
	}
	// The buffer carries the in-band error line and is closed.
	if lines, _ := j.buf.stats(); lines == 0 {
		t.Fatal("backed-out job has no in-band error line")
	}
	// The key is free: a retry gets a fresh job, not the dead record.
	j3, existing3 := s.register(spec, "attach-key")
	if existing3 || j3 == j {
		t.Fatal("retry under the failed key did not get a clean slate")
	}
}

// TestCrashResumeByteIdentity is the tentpole acceptance test: a job killed
// mid-run (journaling stops dead, as under SIGKILL) resumes from its last
// checkpoint after restart and produces NDJSON byte-identical to a run
// that was never interrupted.
func TestCrashResumeByteIdentity(t *testing.T) {
	// Reference: the same job on a journal-less server.
	body := `{"type":"dtm","dtm":{"policy":"envelope","requests":100000,"sample_every":200}}`
	ref := mustNew(t, testConfig())
	wr, infoRef := submitAsync(t, ref, body, "")
	if wr.Code != http.StatusAccepted {
		t.Fatalf("reference submit = %d", wr.Code)
	}
	if st := waitStatus(t, ref, infoRef.ID); st != StatusDone {
		t.Fatalf("reference job = %q", st)
	}
	want := getResult(t, ref, infoRef.ID)
	ref.Shutdown(context.Background())

	// Crash victim: checkpoint frequently so the kill lands mid-stream.
	cfg := testConfig()
	cfg.JournalDir = t.TempDir()
	cfg.CheckpointEvery = 1000
	cfg.Workers = 1
	s1 := mustNew(t, cfg)

	w, info := submitAsync(t, s1, body, "crash-key")
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit = %d", w.Code)
	}
	j, _ := s1.lookup(info.ID)
	deadline := time.Now().Add(30 * time.Second)
	for {
		j.mu.Lock()
		durable := j.journaled
		j.mu.Unlock()
		if durable >= 5 {
			break // a real prefix is on disk; crash now
		}
		if st, _ := j.snapshot(); st.terminal() {
			t.Fatal("job finished before the crash landed; raise requests")
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint ever landed")
		}
		time.Sleep(time.Millisecond)
	}
	s1.Crash()

	// Restart over the same journal: the job must resume and complete.
	cfg2 := testConfig()
	cfg2.JournalDir = cfg.JournalDir
	cfg2.CheckpointEvery = 1000
	s2 := mustNew(t, cfg2)
	defer s2.Shutdown(context.Background())

	if got := s2.met.jobsResumed.Value(); got != 1 {
		t.Fatalf("jobsResumed = %d, want 1", got)
	}
	if st := waitStatus(t, s2, info.ID); st != StatusDone {
		j2, _ := s2.lookup(info.ID)
		_, errMsg := j2.snapshot()
		t.Fatalf("resumed job = %q (%s), want done", st, errMsg)
	}
	got := getResult(t, s2, info.ID)
	if string(got) != string(want) {
		t.Fatalf("resumed result is not byte-identical (%d vs %d bytes)", len(got), len(want))
	}
	// The interrupted submission's key resolves to the resumed job.
	w2, info2 := submitAsync(t, s2, body, "crash-key")
	if w2.Code != http.StatusOK || info2.ID != info.ID {
		t.Fatalf("post-crash dedup: %d job %s, want 200 %s", w2.Code, info2.ID, info.ID)
	}
}

// TestRoadmapCapacityOverflowFinishesClean drives a roadmap spec that
// validation accepts but whose late-century densities overflow int64
// capacities. The job must reach a final state and its body must hold no
// negative or non-finite number (it once streamed a negative capacity_gb).
func TestRoadmapCapacityOverflowFinishesClean(t *testing.T) {
	s := mustNew(t, testConfig())
	defer s.Shutdown(context.Background())
	w, info := submitAsync(t, s,
		`{"type":"roadmap","roadmap":{"first_year":2090,"last_year":2100,"platters":4}}`, "")
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", w.Code, w.Body.String())
	}
	if st := waitStatus(t, s, info.ID); !st.terminal() {
		t.Fatalf("status %q is not final", st)
	}
	body := getResult(t, s, info.ID)
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	for dec.More() {
		var line map[string]any
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("undecodable line: %v\n%s", err, body)
		}
		for k, v := range line {
			n, ok := v.(json.Number)
			if !ok {
				continue
			}
			if f, err := n.Float64(); err != nil || f < 0 || math.IsInf(f, 0) || math.IsNaN(f) {
				t.Errorf("field %s = %s: negative or non-finite", k, n)
			}
		}
	}
}

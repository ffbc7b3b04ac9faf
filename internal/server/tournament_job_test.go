package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"
)

// smallTournamentSpec is a bracket just big enough to stream several cell
// lines (3 policies x 2 workloads x 2 regimes = 12 cells) while staying
// under the synchronous work cap.
func smallTournamentSpec(workers int) string {
	spec := map[string]any{
		"type":    "tournament",
		"workers": workers,
		"tournament": map[string]any{
			"workloads": []string{"TPC-C", "Search-Engine"},
			"requests":  600,
			"seed":      7,
		},
	}
	b, err := json.Marshal(spec)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// TestTournamentJobStreamsNDJSON runs a tournament synchronously and pins
// the stream shape: one "cell" line per bracket cell, in enumeration order,
// then a single "summary" line consistent with the cells.
func TestTournamentJobStreamsNDJSON(t *testing.T) {
	s := mustNew(t, testConfig())
	defer s.Shutdown(context.Background())

	w := postJob(t, s.Handler(), smallTournamentSpec(2), "")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200; body %s", w.Code, w.Body.String())
	}

	var cells, summaries []map[string]any
	sc := bufio.NewScanner(bytes.NewReader(w.Body.Bytes()))
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch m["kind"] {
		case "cell":
			cells = append(cells, m)
		case "summary":
			summaries = append(summaries, m)
		default:
			t.Fatalf("unexpected line kind %v: %s", m["kind"], sc.Text())
		}
	}
	if len(cells) != 12 || len(summaries) != 1 {
		t.Fatalf("got %d cell lines and %d summaries, want 12 and 1", len(cells), len(summaries))
	}
	policies := []string{"reactive", "predictive", "slack-ramp"}
	for i, c := range cells {
		if got, want := c["policy"].(string), policies[i%3]; got != want {
			t.Fatalf("cell %d policy %q, want %q (enumeration order broken)", i, got, want)
		}
		if c["mean_ms"].(float64) <= 0 {
			t.Fatalf("cell %d has degenerate mean: %v", i, c)
		}
	}
	sum := summaries[0]
	if got := sum["cells"].(float64); got != 12 {
		t.Fatalf("summary cells = %v, want 12", got)
	}
	if sum["overall"].(string) == "" {
		t.Fatal("summary carries no overall winner")
	}
}

// TestTournamentJobWorkerInvariance: the NDJSON body of the same seeded
// bracket is byte-identical whether cells fan out over 1 or 8 workers.
func TestTournamentJobWorkerInvariance(t *testing.T) {
	s := mustNew(t, testConfig())
	defer s.Shutdown(context.Background())

	w1 := postJob(t, s.Handler(), smallTournamentSpec(1), "")
	if w1.Code != http.StatusOK {
		t.Fatalf("workers=1 status = %d: %s", w1.Code, w1.Body.String())
	}
	w8 := postJob(t, s.Handler(), smallTournamentSpec(8), "")
	if w8.Code != http.StatusOK {
		t.Fatalf("workers=8 status = %d: %s", w8.Code, w8.Body.String())
	}
	if !bytes.Equal(w1.Body.Bytes(), w8.Body.Bytes()) {
		t.Fatalf("tournament result bytes differ across worker counts:\n%s\nvs\n%s",
			w1.Body.String(), w8.Body.String())
	}
}

// TestTournamentJobValidation pins the admission gates: unknown names are
// 400s, and an over-cap bracket is only admissible async.
func TestTournamentJobValidation(t *testing.T) {
	s := mustNew(t, testConfig())
	defer s.Shutdown(context.Background())

	bad := []string{
		`{"type":"tournament","tournament":{"policies":["nonsense"]}}`,
		`{"type":"tournament","tournament":{"regimes":["hurricane"]}}`,
		`{"type":"tournament","tournament":{"workloads":["no-such-trace"]}}`,
		`{"type":"tournament","tournament":{"requests":-1}}`,
		`{"type":"tournament","tournament":{"lead_time_ms":-5}}`,
		`{"type":"tournament","dtm":{"policy":"envelope"}}`,
	}
	for _, body := range bad {
		if w := postJob(t, s.Handler(), body, ""); w.Code != http.StatusBadRequest {
			t.Errorf("spec %s = %d, want 400", body, w.Code)
		}
	}

	// The default bracket (30 cells x 4000 requests = 120k work) exceeds
	// the 100k synchronous cap but rides the async path.
	if w := postJob(t, s.Handler(), `{"type":"tournament"}`, ""); w.Code != http.StatusBadRequest {
		t.Errorf("default bracket sync = %d, want 400 (over the sync cap)", w.Code)
	}
	w, info := submitAsync(t, s, `{"type":"tournament"}`, "")
	if w.Code != http.StatusAccepted {
		t.Fatalf("default bracket async = %d, want 202: %s", w.Code, w.Body.String())
	}
	if st := waitStatus(t, s, info.ID); st != StatusDone {
		t.Fatalf("default bracket job = %q, want done", st)
	}
}

// TestTournamentCrashResumeByteIdentity is the tournament acceptance
// contract on the crash path: a job killed mid-bracket (simulated SIGKILL:
// journaling stops dead) resumes after restart from its last cell-boundary
// checkpoint and produces NDJSON byte-identical to an uninterrupted run.
func TestTournamentCrashResumeByteIdentity(t *testing.T) {
	// Full default bracket, async-sized, so plenty of cell checkpoints land
	// before the crash.
	body := `{"type":"tournament","workers":2,"tournament":{"requests":4000,"seed":7}}`

	want := referenceResult(t, body)

	cfg := testConfig()
	cfg.JournalDir = t.TempDir()
	cfg.Workers = 1
	// Two cell checkpoints are on disk when the crash lands.
	id := crashAtCheckpoint(t, cfg, body, "tournament-crash-key", 2)

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
		t.Fatalf("resumed tournament job = %q (%s), want done", st, errMsg)
	}
	got := getResult(t, s2, id)
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed tournament result is not byte-identical (%d vs %d bytes)", len(got), len(want))
	}
}

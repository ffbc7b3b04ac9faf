package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strings"
	"testing"
)

// decodeSpec decodes a job body the way POST /v1/jobs does.
func decodeSpec(t *testing.T, body string) Spec {
	t.Helper()
	var spec Spec
	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("decode %s: %v", body, err)
	}
	return spec
}

// TestRunSpecMatchesSyncPost: RunSpec writes the bytes a synchronous POST
// of the same spec serves.
func TestRunSpecMatchesSyncPost(t *testing.T) {
	s := mustNew(t, testConfig())
	defer s.Shutdown(context.Background())

	for _, body := range []string{
		smallRoadmapSpec(),
		smallFleetSpec(2),
		`{"type":"dtm","dtm":{"policy":"drpm","requests":2000,"sample_every":500}}`,
		`{"type":"raid","raid":{"workload":"TPC-C","requests":300,"fail_disk":1,"fail_at_ms":200,"sample_every":100}}`,
	} {
		w := postJob(t, s.Handler(), body, "")
		if w.Code != http.StatusOK {
			t.Fatalf("POST %s = %d: %s", body, w.Code, w.Body.String())
		}
		var got bytes.Buffer
		if err := RunSpec(context.Background(), decodeSpec(t, body), &got); err != nil {
			t.Fatalf("RunSpec %s: %v", body, err)
		}
		if !bytes.Equal(got.Bytes(), w.Body.Bytes()) {
			t.Errorf("RunSpec %s differs from the POST body:\n%s\nvs\n%s", body, got.String(), w.Body.String())
		}
	}
}

// TestRunSpecRejectsLikePost: RunSpec refuses what an async POST under the
// default Config refuses, with the same message, and writes nothing.
func TestRunSpecRejectsLikePost(t *testing.T) {
	s := newServer(Config{}) // no workers: admission only
	for _, body := range []string{
		`{"type":"nope"}`,
		`{"type":"roadmap","workers":33}`,
		`{"type":"fleet","fleet":{"racks":1,"chassis_per_rack":1,"slots_per_chassis":1,"placement":"warmest"}}`,
		`{"type":"tournament","tournament":{"requests":200000}}`,
		`{"type":"dtm","dtm":{"policy":"warmwater"}}`,
		`{"type":"dtm","roadmap":{},"dtm":{"policy":"drpm"}}`,
	} {
		w := postJob(t, s.Handler(), body, "?async=1")
		if w.Code != http.StatusBadRequest {
			t.Fatalf("POST %s = %d, want 400", body, w.Code)
		}
		var posted struct{ Error string }
		if err := json.Unmarshal(w.Body.Bytes(), &posted); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		err := RunSpec(context.Background(), decodeSpec(t, body), &out)
		if err == nil || err.Error() != posted.Error {
			t.Errorf("RunSpec %s: error %v, want %q", body, err, posted.Error)
		}
		if out.Len() != 0 {
			t.Errorf("RunSpec %s wrote %q for a refused spec", body, out.String())
		}
	}
}

// nanKind is a test job kind whose second result line holds a NaN.
type nanKind struct{}

func (nanKind) validate(Config, bool) error { return nil }

func (nanKind) run(_ context.Context, _ *Server, _ Spec, env runEnv) error {
	if err := env.emit(map[string]float64{"x": 1}); err != nil {
		return err
	}
	return env.emit(map[string]float64{"x": math.NaN()})
}

// TestNonFiniteResultFailsJob: a result line JSON cannot carry fails the
// job with errNonFinite naming the line, the job ends failed, and the
// buffer holds only whole lines — the good one and the in-band error.
func TestNonFiniteResultFailsJob(t *testing.T) {
	jobKinds["nan"] = kindRow{func(*Spec) jobKind { return nil }, nanKind{}}
	defer delete(jobKinds, "nan")

	s := newServer(testConfig())
	j, _ := s.register(Spec{Type: "nan"}, "")
	err := s.dispatch(context.Background(), j.spec, runEnv{emit: j.emit})
	if !errors.Is(err, errNonFinite) || !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("dispatch error %v, want errNonFinite at line 1", err)
	}

	j, _ = s.register(Spec{Type: "nan"}, "")
	s.runJob(j)
	if st, msg := j.snapshot(); st != StatusFailed || !strings.Contains(msg, "non-finite result at line 1") {
		t.Fatalf("job ended %q (%s), want failed on the non-finite line", st, msg)
	}
	if n := j.buf.lineCount(); n != 2 {
		t.Fatalf("buffer holds %d lines, want the good line and the error line", n)
	}
	for i := 0; i < 2; i++ {
		var m map[string]any
		if err := json.Unmarshal(j.buf.line(i), &m); err != nil {
			t.Fatalf("line %d is not whole JSON: %q", i, j.buf.line(i))
		}
	}

	var out bytes.Buffer
	if err := RunSpec(context.Background(), Spec{Type: "nan"}, &out); !errors.Is(err, errNonFinite) {
		t.Fatalf("RunSpec error %v, want errNonFinite", err)
	}
	if out.String() != "{\"x\":1}\n" {
		t.Fatalf("RunSpec wrote %q, want only the good line", out.String())
	}
}

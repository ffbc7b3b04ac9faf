package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"
)

// smallSurrogateTrainSpec is a grid just big enough to stream temp,
// latency, fold and summary lines while staying well under the
// synchronous work cap.
func smallSurrogateTrainSpec(workers int) string {
	spec := map[string]any{
		"type":    "surrogate",
		"workers": workers,
		"surrogate": map[string]any{
			"mode": "train",
			"train": map[string]any{
				"years":     []int{2002, 2004},
				"rpms":      []float64{10000, 15000, 20000},
				"workloads": []string{"TPC-C"},
				"requests":  300,
				"folds":     2,
				"probes":    2,
			},
		},
	}
	b, err := json.Marshal(spec)
	if err != nil {
		panic(err)
	}
	return string(b)
}

func surrogateQuerySpec(exact bool, queries string) string {
	flag := ""
	if exact {
		flag = `"exact":true,`
	}
	return `{"type":"surrogate","surrogate":{"mode":"query",` + flag + `"queries":[` + queries + `]}}`
}

const inHullQuery = `{"year":2003,"rpm":12500,"platters":1,"form_factor":"3.5-inch","workload":"TPC-C"}`
const outOfHullQuery = `{"year":2030,"rpm":12500,"platters":1,"form_factor":"3.5-inch","workload":"TPC-C"}`

// scanKinds buckets a job body's NDJSON lines by kind.
func scanKinds(t *testing.T, body []byte) map[string][]map[string]any {
	t.Helper()
	out := map[string][]map[string]any{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		kind, _ := m["kind"].(string)
		out[kind] = append(out[kind], m)
	}
	return out
}

// TestSurrogateTrainJobStreamsNDJSON pins the training stream shape — one
// line per grid cell in deterministic order, the cross-validation folds,
// and a summary carrying the artifact checksum — then verifies the trained
// model actually serves the next query job.
func TestSurrogateTrainJobStreamsNDJSON(t *testing.T) {
	s := mustNew(t, testConfig())
	defer s.Shutdown(context.Background())

	w := postJob(t, s.Handler(), smallSurrogateTrainSpec(2), "")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200; body %s", w.Code, w.Body.String())
	}
	kinds := scanKinds(t, w.Body.Bytes())
	if n := len(kinds["temp"]); n != 3 {
		t.Errorf("got %d temp cells, want 3", n)
	}
	if n := len(kinds["latency"]); n != 6 {
		t.Errorf("got %d latency cells, want 6", n)
	}
	if n := len(kinds["fold"]); n != 2 {
		t.Errorf("got %d fold lines, want 2", n)
	}
	if n := len(kinds["summary"]); n != 1 {
		t.Fatalf("got %d summary lines, want 1", n)
	}
	sum := kinds["summary"][0]
	if cs, _ := sum["checksum"].(string); len(cs) != 8 {
		t.Errorf("summary checksum %q, want 8 hex digits", cs)
	}
	if chans, _ := sum["channels"].([]any); len(chans) != 4 {
		t.Errorf("summary has %d channels, want 4", len(sum["channels"].([]any)))
	}

	// The freshly trained model must serve an in-hull query from the fast
	// path.
	wq := postJob(t, s.Handler(), surrogateQuerySpec(false, inHullQuery), "")
	if wq.Code != http.StatusOK {
		t.Fatalf("query status = %d: %s", wq.Code, wq.Body.String())
	}
	qk := scanKinds(t, wq.Body.Bytes())
	if len(qk["answer"]) != 1 || qk["answer"][0]["source"] != "surrogate" {
		t.Fatalf("in-hull query not served by the surrogate: %s", wq.Body.String())
	}
	if qk["summary"][0]["hits"].(float64) != 1 {
		t.Errorf("query summary hits = %v, want 1", qk["summary"][0]["hits"])
	}
	if got := s.surMet.Hits.Value(); got != 1 {
		t.Errorf("hit counter = %d, want 1", got)
	}
}

// TestSurrogateTrainWorkerInvariance: the training stream — and the
// artifact checksum inside it — is byte-identical at any worker fan-out.
func TestSurrogateTrainWorkerInvariance(t *testing.T) {
	s := mustNew(t, testConfig())
	defer s.Shutdown(context.Background())

	w1 := postJob(t, s.Handler(), smallSurrogateTrainSpec(1), "")
	if w1.Code != http.StatusOK {
		t.Fatalf("workers=1 status = %d: %s", w1.Code, w1.Body.String())
	}
	w8 := postJob(t, s.Handler(), smallSurrogateTrainSpec(8), "")
	if w8.Code != http.StatusOK {
		t.Fatalf("workers=8 status = %d: %s", w8.Code, w8.Body.String())
	}
	if !bytes.Equal(w1.Body.Bytes(), w8.Body.Bytes()) {
		t.Fatalf("training result bytes differ across worker counts:\n%s\nvs\n%s",
			w1.Body.String(), w8.Body.String())
	}
}

// TestSurrogateQueryFallsBackWithoutModel: on a server with no trained
// model every query transparently takes the exact path, and the body is
// byte-identical to a forced-exact job — the fallback is provably the
// exact engine, not an approximation.
func TestSurrogateQueryFallsBackWithoutModel(t *testing.T) {
	s := mustNew(t, testConfig())
	defer s.Shutdown(context.Background())

	wf := postJob(t, s.Handler(), surrogateQuerySpec(false, inHullQuery), "")
	if wf.Code != http.StatusOK {
		t.Fatalf("fallback status = %d: %s", wf.Code, wf.Body.String())
	}
	we := postJob(t, s.Handler(), surrogateQuerySpec(true, inHullQuery), "")
	if we.Code != http.StatusOK {
		t.Fatalf("exact status = %d: %s", we.Code, we.Body.String())
	}
	if !bytes.Equal(wf.Body.Bytes(), we.Body.Bytes()) {
		t.Fatalf("no-model fallback differs from forced exact:\n%s\nvs\n%s",
			wf.Body.String(), we.Body.String())
	}
	kinds := scanKinds(t, wf.Body.Bytes())
	if kinds["answer"][0]["source"] != "exact" {
		t.Fatalf("fallback answer source = %v, want exact", kinds["answer"][0]["source"])
	}
	if got := s.surMet.FallbackNoModel.Value(); got != 1 {
		t.Errorf("no_model fallback counter = %d, want 1", got)
	}
	if got := s.surMet.Fallbacks.Value(); got != 2 {
		t.Errorf("fallback counter = %d, want 2 (one no-model, one forced)", got)
	}
}

// TestSurrogateQueryErrorBound: a model whose cross-validated error
// exceeds the job's max_rel_err bound is not trusted — queries fall back
// even inside the hull.
func TestSurrogateQueryErrorBound(t *testing.T) {
	s := mustNew(t, testConfig())
	defer s.Shutdown(context.Background())

	if w := postJob(t, s.Handler(), smallSurrogateTrainSpec(2), ""); w.Code != http.StatusOK {
		t.Fatalf("train status = %d: %s", w.Code, w.Body.String())
	}
	body := `{"type":"surrogate","surrogate":{"mode":"query","max_rel_err":1e-12,"queries":[` + inHullQuery + `]}}`
	w := postJob(t, s.Handler(), body, "")
	if w.Code != http.StatusOK {
		t.Fatalf("query status = %d: %s", w.Code, w.Body.String())
	}
	kinds := scanKinds(t, w.Body.Bytes())
	if kinds["answer"][0]["source"] != "exact" {
		t.Fatalf("over-bound query served by surrogate: %s", w.Body.String())
	}
	if got := s.surMet.FallbackErrBound.Value(); got != 1 {
		t.Errorf("error_bound fallback counter = %d, want 1", got)
	}
}

// TestSurrogateJobValidation pins the admission gates.
func TestSurrogateJobValidation(t *testing.T) {
	s := mustNew(t, testConfig())
	defer s.Shutdown(context.Background())

	bad := []string{
		`{"type":"surrogate"}`,
		`{"type":"surrogate","surrogate":{}}`,
		`{"type":"surrogate","surrogate":{"mode":"predict"}}`,
		`{"type":"surrogate","surrogate":{"mode":"query"}}`,
		`{"type":"surrogate","surrogate":{"mode":"query","queries":[{"year":1800,"rpm":15000,"platters":1,"form_factor":"3.5-inch","workload":"TPC-C"}]}}`,
		`{"type":"surrogate","surrogate":{"mode":"query","queries":[` + inHullQuery + `],"train":{}}}`,
		`{"type":"surrogate","surrogate":{"mode":"train","queries":[` + inHullQuery + `]}}`,
		`{"type":"surrogate","surrogate":{"mode":"train","train":{"years":[2004,2002]}}}`,
		`{"type":"surrogate","surrogate":{"mode":"train","train":{"rpms":[10000]}}}`,
		`{"type":"surrogate","surrogate":{"mode":"train"},"dtm":{"policy":"envelope"}}`,
	}
	for _, body := range bad {
		if w := postJob(t, s.Handler(), body, ""); w.Code != http.StatusBadRequest {
			t.Errorf("spec %s = %d, want 400", body, w.Code)
		}
	}

	// A grid over the synchronous work cap is refused on the sync path but
	// rides the async one: 13 cells x 100000 requests = 1.3M work.
	big := `{"type":"surrogate","surrogate":{"mode":"train","train":{` +
		`"years":[2002,2004,2006],"rpms":[9000,12000,15000,18000],` +
		`"workloads":["TPC-C"],"requests":100000,"folds":1,"probes":1}}}`
	if w := postJob(t, s.Handler(), big, ""); w.Code != http.StatusBadRequest {
		t.Errorf("over-cap grid sync = %d, want 400", w.Code)
	}
	w, info := submitAsync(t, s, big, "")
	if w.Code != http.StatusAccepted {
		t.Fatalf("over-cap grid async = %d, want 202: %s", w.Code, w.Body.String())
	}
	if st := waitStatus(t, s, info.ID); st != StatusDone {
		t.Fatalf("async over-cap training = %q, want done", st)
	}
}

// TestSurrogateTrainCrashResumeByteIdentity: a training job killed between
// cell-window checkpoints resumes after restart and produces NDJSON
// byte-identical to an uninterrupted run — and still installs the model.
func TestSurrogateTrainCrashResumeByteIdentity(t *testing.T) {
	// 2 workloads x 4 years x 4 RPMs = 32 latency cells: two window
	// checkpoints land before the run ends.
	spec := map[string]any{
		"type":    "surrogate",
		"workers": 2,
		"surrogate": map[string]any{
			"mode": "train",
			"train": map[string]any{
				"years":     []int{2002, 2003, 2004, 2005},
				"rpms":      []float64{9000, 12000, 15000, 18000},
				"workloads": []string{"TPC-C", "Search-Engine"},
				"requests":  4000,
				"folds":     1,
				"probes":    2,
			},
		},
	}
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	body := string(b)

	want := referenceResult(t, body)

	cfg := testConfig()
	cfg.JournalDir = t.TempDir()
	cfg.Workers = 1
	// One cell-window checkpoint is on disk when the crash lands.
	id := crashAtCheckpoint(t, cfg, body, "surrogate-crash-key", 1)

	cfg2 := testConfig()
	cfg2.JournalDir = cfg.JournalDir
	s2 := mustNew(t, cfg2)
	defer s2.Shutdown(context.Background())

	if st := waitStatus(t, s2, id); st != StatusDone {
		j2, _ := s2.lookup(id)
		_, errMsg := j2.snapshot()
		t.Fatalf("resumed training job = %q (%s), want done", st, errMsg)
	}
	got := getResult(t, s2, id)
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed training result is not byte-identical (%d vs %d bytes)", len(got), len(want))
	}
	// The resumed run installed its model: an in-hull query takes the
	// fast path.
	wq := postJob(t, s2.Handler(), surrogateQuerySpec(false, inHullQuery), "")
	if wq.Code != http.StatusOK {
		t.Fatalf("post-resume query = %d: %s", wq.Code, wq.Body.String())
	}
	kinds := scanKinds(t, wq.Body.Bytes())
	if kinds["answer"][0]["source"] != "surrogate" {
		t.Fatalf("post-resume query not served by the resumed model: %s", wq.Body.String())
	}
}

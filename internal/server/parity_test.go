package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// goldenFleetSpec is the fleet_coolfail golden scenario as a simd job: the
// spec the fleetsim flags in testdata/golden/README.md describe.
const goldenFleetSpec = `{"type":"fleet","fleet":{"racks":4,"chassis_per_rack":3,"slots_per_chassis":6,` +
	`"requests_per_drive":25,"seed":11,"recirculation":0.2,"placement":"coolest",` +
	`"migrate_at_c":30,"hysteresis_c":0.5,` +
	`"cooling_failure":{"rack":1,"at_ms":200,"duration_ms":3000,"delta_c":12}}}`

// dtmJobDigests are the sha256 digests of the dtm job body per policy at
// 5000 requests with a sample line every 1000 completions.
var dtmJobDigests = map[string]string{
	"envelope":   "eb01e6e96c17ce6faeff3d211b714fbac3604dfb62c98e5844d93df2855d6694",
	"watermark":  "8dc9d4daae0a69cea79f79315b74a44b5db86e8520d24406523e0dc918de3a01",
	"slack-ramp": "f100ffdf8a80d84fc409f14b1092b85484a1b53c8af0ecbc63f36c3e61625513",
	"drpm":       "77b7ff0714e4551ae14ac79b135c4b220d389f950f4e812192bb9275f4b3a2eb",
	"escalation": "697117b5634e83c7ff115a0b4f9841a08857edeb3780db6292683477c00cef6c",
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// runAsyncJob submits a spec on the async path, waits for it, and returns
// its result body; the job must finish done.
func runAsyncJob(t *testing.T, s *Server, body string) []byte {
	t.Helper()
	w, info := submitAsync(t, s, body, "")
	if w.Code != 202 {
		t.Fatalf("submit %s = %d: %s", body, w.Code, w.Body.String())
	}
	if st := waitStatus(t, s, info.ID); st != StatusDone {
		t.Fatalf("job %s ended %q: %s", info.ID, st, getResult(t, s, info.ID))
	}
	return getResult(t, s, info.ID)
}

// TestJobGoldenParity pins simd job bodies against the CLI goldens: the
// fleet_coolfail scenario as a fleet job equals fleet_coolfail.ndjson, the
// default tournament job equals tournament_summary.ndjson, and each dtm
// policy body keeps its recorded digest. The CLIs and the daemon describe
// the same scenarios, so their bytes must agree.
func TestJobGoldenParity(t *testing.T) {
	s := mustNew(t, testConfig())
	defer s.Shutdown(context.Background())

	if got, want := runAsyncJob(t, s, goldenFleetSpec), readGolden(t, "fleet_coolfail.ndjson"); !bytes.Equal(got, want) {
		t.Errorf("fleet job body differs from fleet_coolfail.ndjson:\n%s", got)
	}
	if got, want := runAsyncJob(t, s, `{"type":"tournament"}`), readGolden(t, "tournament_summary.ndjson"); !bytes.Equal(got, want) {
		t.Errorf("tournament job body differs from tournament_summary.ndjson:\n%s", got)
	}
	for _, policy := range []string{"envelope", "watermark", "slack-ramp", "drpm", "escalation"} {
		body := fmt.Sprintf(`{"type":"dtm","dtm":{"policy":%q,"requests":5000,"sample_every":1000}}`, policy)
		sum := sha256.Sum256(runAsyncJob(t, s, body))
		if got := hex.EncodeToString(sum[:]); got != dtmJobDigests[policy] {
			t.Errorf("dtm %s body digest %s, want %s", policy, got, dtmJobDigests[policy])
		}
	}
}

// raidJobDigests are the sha256 digests of two raid job bodies run through
// RunSpec: a RAID-5 reconstruction with a rebuild onto the spare, and a
// JBOD that loses the requests touching its failed member (the
// ErrDataLoss count-and-continue path).
var raidJobDigests = []struct{ spec, digest string }{
	{`{"type":"raid","raid":{"workload":"TPC-C","requests":2000,"fail_disk":1,"fail_at_ms":200,"spare":true,"sample_every":250}}`,
		"99cbdfa6bb931407cdfbceb5e84db6e2ca259d9872a39ec50a268840eaa441a5"},
	{`{"type":"raid","raid":{"workload":"Search-Engine","requests":2000,"fail_disk":2,"fail_at_ms":300,"sample_every":250}}`,
		"f6591795c02c5fc742876c1a3205973e0495dc1399b15bc98aff049744c31faa"},
}

// TestRAIDJobDigests pins the degraded-RAID replay's job bodies bit for
// bit, so the recovery runner's admission, join and loss accounting cannot
// drift unnoticed.
func TestRAIDJobDigests(t *testing.T) {
	for _, tc := range raidJobDigests {
		var body bytes.Buffer
		if err := RunSpec(context.Background(), decodeSpec(t, tc.spec), &body); err != nil {
			t.Fatalf("RunSpec %s: %v", tc.spec, err)
		}
		sum := sha256.Sum256(body.Bytes())
		if got := hex.EncodeToString(sum[:]); got != tc.digest {
			t.Errorf("raid body digest %s, want %s for %s:\n%s", got, tc.digest, tc.spec, body.String())
		}
	}
}

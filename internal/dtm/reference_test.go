package dtm

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/disksim"
	"repro/internal/obs"
	"repro/internal/reliability"
	"repro/internal/sim"
)

// TestPolicyRunReportsItsPolicy runs every policy of the reference
// scenario: each serves the whole workload to the sink, fills in the
// counters of its own control actions only, and registers its series under
// its own policy label.
func TestPolicyRunReportsItsPolicy(t *testing.T) {
	const n = 3000
	reg := obs.NewRegistry()
	for _, policy := range Policies {
		pushed := 0
		sink := sim.SinkFunc[disksim.Completion](func(disksim.Completion) { pushed++ })
		sum, err := PolicyRun{Policy: policy, Requests: n, Registry: reg}.Run(context.Background(), nil, sink)
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if sum.Served != n || pushed != n {
			t.Fatalf("%s: served %d, sink saw %d, want %d", policy, sum.Served, pushed, n)
		}
		if sum.MeanMS <= 0 {
			t.Fatalf("%s: degenerate mean %v", policy, sum.MeanMS)
		}
		controlled := policy != "envelope"
		if (sum.MaxAirTempC > 0) != controlled || (sum.ElapsedSimMS > 0) != controlled {
			t.Errorf("%s: max air %v, elapsed %v: only controllers measure them", policy, sum.MaxAirTempC, sum.ElapsedSimMS)
		}
		if (sum.P95MS > 0) != (policy == "watermark" || policy == "drpm" || policy == "escalation") {
			t.Errorf("%s: p95 %v reported by the wrong policy", policy, sum.P95MS)
		}
		if sum.Transitions > 0 && policy != "slack-ramp" && policy != "drpm" {
			t.Errorf("%s: %d transitions from a fixed-speed policy", policy, sum.Transitions)
		}
	}
	labelled := map[string]bool{}
	for _, m := range reg.Snapshot() {
		labelled[m.Labels["policy"]] = true
	}
	for _, policy := range Policies {
		if !labelled[policy] {
			t.Errorf("no series labelled policy=%s", policy)
		}
	}
}

// TestPolicyRunFaults: the fault injector rides the escalation ladder's
// transient (a hazard accelerated far enough kills the drive mid-run), and
// a policy without a fault hook refuses one.
func TestPolicyRunFaults(t *testing.T) {
	inj := NewThermalFaults(OffTrackModel{}, reliability.Default(), nil, 1)
	inj.TimeAcceleration = 1e11
	sum, err := PolicyRun{Policy: "escalation", Requests: 5000, Faults: inj}.Run(context.Background(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.DiskFailed || sum.FailedAt <= 0 || sum.Served >= 5000 {
		t.Fatalf("accelerated hazard did not end the run: %+v", sum)
	}

	_, err = PolicyRun{Policy: "watermark", Faults: inj}.Run(context.Background(), nil, nil)
	if err == nil || !strings.Contains(err.Error(), "no fault injector") {
		t.Fatalf("watermark with faults: %v", err)
	}
	if _, err := (PolicyRun{Policy: "warmwater"}).Run(context.Background(), nil, nil); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestPolicyRunCancelled: a done context ends every policy with its error.
func TestPolicyRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, policy := range Policies {
		if _, err := (PolicyRun{Policy: policy, Requests: 100}).Run(ctx, nil, nil); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: error %v, want context.Canceled", policy, err)
		}
	}
}

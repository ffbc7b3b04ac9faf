package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"repro/internal/scaling"
	"repro/internal/thermal"
	"repro/internal/units"
)

func testConfig() Config {
	return Config{
		Topology: Topology{Racks: 3, ChassisPerRack: 2, SlotsPerChassis: 4},
		Scenario: Scenario{Recirculation: 0.2},
		Workload: Workload{RequestsPerDrive: 15, Seed: 7},
	}
}

// runBytes renders a run's full output (every rack line plus the summary)
// as one byte stream — the same shape the serving layer emits.
func runBytes(t *testing.T, cfg Config) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	sum, err := Run(context.Background(), cfg, func(rs RackSummary) error { return enc.Encode(rs) })
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(sum); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero racks", func(c *Config) { c.Topology.Racks = 0 }},
		{"zero chassis", func(c *Config) { c.Topology.ChassisPerRack = 0 }},
		{"zero slots", func(c *Config) { c.Topology.SlotsPerChassis = 0 }},
		{"negative airflow", func(c *Config) { c.Scenario.AirflowCFM = -1 }},
		{"recirculation at 1", func(c *Config) { c.Scenario.Recirculation = 1 }},
		{"negative recirculation", func(c *Config) { c.Scenario.Recirculation = -0.1 }},
		{"failure rack out of range", func(c *Config) {
			c.Scenario.CoolingFailure = &CoolingFailure{Rack: 99, Duration: time.Second}
		}},
		{"failure before time zero", func(c *Config) {
			c.Scenario.CoolingFailure = &CoolingFailure{Rack: -1, At: -time.Second, Duration: time.Second}
		}},
		{"unknown placement", func(c *Config) { c.Placement = "warmest" }},
		{"negative requests", func(c *Config) { c.Workload.RequestsPerDrive = -1 }},
		{"hot fraction above 1", func(c *Config) { c.Workload.HotFraction = 1.5 }},
		{"generation year out of range", func(c *Config) { c.GenYears = []int{1899} }},
	}
	for _, tc := range cases {
		cfg := testConfig()
		tc.mutate(&cfg)
		if _, err := Run(context.Background(), cfg, nil); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestRunDeterministicAcrossWorkers is the sharding contract: the full
// output stream — every rack summary and the fleet reduction — must be
// byte-identical at -workers 1 and -workers 8. Runs under -race in CI.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	cfg := testConfig()
	cfg.Placement = PlaceCoolest
	cfg.Migration = Migration{ThresholdC: 29, HysteresisC: 0.5}
	cfg.Scenario.CoolingFailure = &CoolingFailure{
		Rack: 1, At: 200 * time.Millisecond, Duration: 2 * time.Second, DeltaC: 12,
	}

	cfg.Workers = 1
	seq := runBytes(t, cfg)
	for _, workers := range []int{2, 8} {
		cfg.Workers = workers
		if got := runBytes(t, cfg); !bytes.Equal(got, seq) {
			t.Fatalf("workers=%d output differs from sequential:\n%s\nvs\n%s", workers, got, seq)
		}
	}
}

func TestRunSeedChangesOutput(t *testing.T) {
	cfg := testConfig()
	a := runBytes(t, cfg)
	cfg.Workload.Seed = 8
	if b := runBytes(t, cfg); bytes.Equal(a, b) {
		t.Fatal("different seeds produced identical output")
	}
}

// TestCoolingFailure pins the scenario knob's physics: a failure window
// raises the affected rack's drives and leaves other racks untouched, and
// a bigger delta is monotonically worse.
func TestCoolingFailure(t *testing.T) {
	base := testConfig()
	run := func(delta units.Celsius) (Summary, []RackSummary) {
		cfg := base
		if delta > 0 {
			cfg.Scenario.CoolingFailure = &CoolingFailure{
				Rack: 1, At: 100 * time.Millisecond, Duration: 5 * time.Second, DeltaC: delta,
			}
		}
		var racks []RackSummary
		sum, err := Run(context.Background(), cfg, func(rs RackSummary) error {
			racks = append(racks, rs)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return sum, racks
	}

	calm, calmRacks := run(0)
	hot, hotRacks := run(10)
	hotter, _ := run(20)

	if hot.HottestAirC <= calm.HottestAirC {
		t.Fatalf("cooling failure did not heat the fleet: %.3f vs %.3f", hot.HottestAirC, calm.HottestAirC)
	}
	if hotter.HottestAirC <= hot.HottestAirC {
		t.Fatalf("bigger delta not hotter: %.3f vs %.3f", hotter.HottestAirC, hot.HottestAirC)
	}
	if hotRacks[1].HottestAirC <= calmRacks[1].HottestAirC {
		t.Fatal("affected rack not heated")
	}
	// Racks 0 and 2 never see the failure; their thermal outcome is
	// unchanged (requests equal by construction).
	for _, r := range []int{0, 2} {
		if hotRacks[r].HottestAirC != calmRacks[r].HottestAirC {
			t.Fatalf("rack %d heated by a rack-1 failure", r)
		}
	}
	if hot.EffectiveAFR <= calm.EffectiveAFR {
		t.Fatal("failure window did not raise the fleet's effective AFR")
	}
}

// TestMigrationMovesWork sets the threshold inside the chassis' slot
// ambient spread (downstream slots breathe ~1.4 C warmer air than slot 0)
// and checks the policy both fires and conserves the workload.
func TestMigrationMovesWork(t *testing.T) {
	cfg := testConfig()
	calm, err := Run(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if calm.Migrations != 0 {
		t.Fatalf("migrations with a zero threshold: %d", calm.Migrations)
	}

	cfg.Migration = Migration{ThresholdC: 29, HysteresisC: 0.5}
	sum, err := Run(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Migrations == 0 {
		t.Fatal("threshold migration never fired")
	}
	if sum.Requests != calm.Requests {
		t.Fatalf("migration lost requests: %d vs %d", sum.Requests, calm.Requests)
	}
}

func TestPlaceCoolestPairsHotStreamsWithCoolSlots(t *testing.T) {
	streams := []streamSpec{
		{id: 0, rate: 10},
		{id: 1, rate: 90, hot: true},
		{id: 2, rate: 10},
		{id: 3, rate: 90, hot: true},
	}
	ambients := []units.Celsius{28, 29, 30, 31}
	streamOn := place(PlaceCoolest, streams, ambients)
	if streamOn[0] != 1 || streamOn[1] != 3 {
		t.Fatalf("hot streams not on coolest slots: %v", streamOn)
	}
	if streamOn[2] != 0 || streamOn[3] != 2 {
		t.Fatalf("cold streams misplaced: %v", streamOn)
	}

	static := place(PlaceStatic, streams, ambients)
	for i, s := range static {
		if s != i {
			t.Fatalf("static placement moved stream %d to %d", s, i)
		}
	}
}

// TestPreviewRecirculation checks the rack ladder: with recirculation the
// upper chassis breathe warmer air than the cold-aisle chassis, and
// without it every chassis sees the room inlet.
func TestPreviewRecirculation(t *testing.T) {
	cfg := testConfig()
	cfg.Topology = Topology{Racks: 1, ChassisPerRack: 3, SlotsPerChassis: 4}

	cfg.Scenario.Recirculation = 0
	flat, err := PreviewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range flat {
		if d.Slot == 0 && d.Ambient != thermal.DefaultAmbient {
			t.Fatalf("chassis %d slot 0 ambient %.3f without recirculation", d.Chassis, float64(d.Ambient))
		}
	}

	cfg.Scenario.Recirculation = 0.3
	mixed, err := PreviewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(mixed) != cfg.Topology.Drives() {
		t.Fatalf("%d preview drives, want %d", len(mixed), cfg.Topology.Drives())
	}
	// Same slot, higher chassis -> strictly warmer (same generation in
	// both positions: slots per chassis is a multiple of the gen count).
	byPos := map[int]units.Celsius{}
	for _, d := range mixed {
		if d.Slot == 0 {
			byPos[d.Chassis] = d.Ambient
		}
	}
	if !(byPos[0] < byPos[1] && byPos[1] < byPos[2]) {
		t.Fatalf("recirculation ladder not increasing: %v", byPos)
	}
	// Downstream slots are warmer than slot 0 in the same chassis.
	if !(mixed[1].Ambient > mixed[0].Ambient) {
		t.Fatal("slot preheat missing")
	}
}

// TestGenerationsSharedAndDistinct: repeats dedupe to one instance;
// distinct years really differ (the roadmap's densities move).
func TestGenerationsSharedAndDistinct(t *testing.T) {
	gens, err := generations([]int{2002, 2005, 2002})
	if err != nil {
		t.Fatal(err)
	}
	if gens[0] != gens[2] {
		t.Fatal("same year produced two instances")
	}
	if gens[0].TotalSectors >= gens[1].TotalSectors {
		t.Fatalf("2005 capacity (%d) not above 2002 (%d)", gens[1].TotalSectors, gens[0].TotalSectors)
	}
	if gens[0].Dissipation <= 0 || gens[0].RPM <= 0 {
		t.Fatal("degenerate generation")
	}
}

// TestGenerationsMatchRoadmapCell: a generation's own envelope search
// gives bit for bit the speed of the single-platter scaling.Roadmap cell
// for its year, which grants one platter no cooling budget.
func TestGenerationsMatchRoadmapCell(t *testing.T) {
	gens, err := generations([]int{2003, 2009})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range gens {
		pts, err := scaling.Roadmap(scaling.Config{FirstYear: g.Year, LastYear: g.Year,
			PlatterSizes: []units.Inches{2.6}, Platters: 1, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		p := pts[0]
		if g.RPM != p.MaxRPM {
			t.Errorf("%d: rpm %v, roadmap cell %v", g.Year, g.RPM, p.MaxRPM)
		}
	}
}

// TestRunCancelled: a context done before the run ends it with ctx.Err()
// and no rack line; a chassis whose engine carries a done context stops
// before its first event.
func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := testConfig()
	racks := 0
	if _, err := Run(ctx, cfg, func(RackSummary) error { racks++; return nil }); !errors.Is(err, context.Canceled) {
		t.Errorf("Run err = %v, want context.Canceled", err)
	}
	if racks != 0 {
		t.Errorf("%d rack lines emitted by a cancelled run", racks)
	}

	cfg = cfg.withDefaults()
	gens, err := generations(cfg.GenYears)
	if err != nil {
		t.Fatal(err)
	}
	envs := buildEnvs(cfg, gens)
	streams := buildStreams(cfg.Workload, cfg.Topology.Drives())
	streamOn := place(cfg.Placement, streams, designAmbients(envs, cfg.Topology.Drives()))
	if _, err := runChassis(ctx, cfg, envs[0], streamOn, streams); !errors.Is(err, context.Canceled) {
		t.Errorf("runChassis err = %v, want context.Canceled", err)
	}
}

func TestMixIsPositionKeyed(t *testing.T) {
	a := mix(1, 2, 3)
	if a != mix(1, 2, 3) {
		t.Fatal("mix not deterministic")
	}
	if a == mix(1, 3, 2) || a == mix(2, 2, 3) {
		t.Fatal("mix collisions on permuted inputs")
	}
	if f := mixFloat(1, 2, 3); f < 0 || f >= 1 {
		t.Fatalf("mixFloat out of range: %v", f)
	}
}

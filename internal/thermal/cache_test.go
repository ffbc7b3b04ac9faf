package thermal

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/units"
)

// TestSteadyStateCacheEquivalence sweeps the roadmap's whole RPM range (the
// 2002 baseline through the 2012 1.6" requirement and beyond) across duties
// and ambients and requires the memoized solve to equal the direct solve
// bit for bit — twice, so the second pass reads every answer out of the
// cache.
func TestSteadyStateCacheEquivalence(t *testing.T) {
	cached, err := New(ReferenceDrive)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := New(ReferenceDrive)
	if err != nil {
		t.Fatal(err)
	}
	direct.NoCache = true

	var loads []Load
	for rpm := 500.0; rpm <= 250000; rpm *= 1.17 {
		for _, duty := range []float64{0, 0.37, 1} {
			for _, amb := range []units.Celsius{DefaultAmbient, DefaultAmbient - 10} {
				loads = append(loads, Load{RPM: units.RPM(rpm), VCMDuty: duty, Ambient: amb})
			}
		}
	}
	for pass := 0; pass < 2; pass++ {
		for _, load := range loads {
			got, want := cached.SteadyState(load), direct.SteadyState(load)
			if got != want {
				t.Fatalf("pass %d, %+v: cached %v != direct %v", pass, load, got, want)
			}
		}
	}
	stats := cached.CacheStats()
	if stats.SteadyHits < int64(len(loads)) {
		t.Errorf("second pass should hit the cache for all %d loads, hits=%d", len(loads), stats.SteadyHits)
	}
	if stats.SteadyMisses != int64(len(loads)) {
		t.Errorf("first pass should miss exactly once per load (%d), misses=%d", len(loads), stats.SteadyMisses)
	}
}

// transientSeg is one leg of a scripted transient trajectory: an Advance
// for d, or (with until set) an AdvanceUntil that stops once the air
// reaches until, within d.
type transientSeg struct {
	load  Load
	d     time.Duration
	until units.Celsius
}

// transientScript is a trajectory that exercises everything the
// transient's operating-point cache must get right: the speed switches
// DRPM and Escalation make mid-run, duties outside [0, 1] (which the heat
// inputs clamp), a fleet cooling-failure ambient step and back, short and
// odd durations, AdvanceUntil both warming and cooling, and a speed whose
// stability bound is below the 100 ms step.
var transientScript = []transientSeg{
	{load: Load{RPM: 15000, VCMDuty: 1, Ambient: DefaultAmbient}, d: 2 * time.Second},
	{load: Load{RPM: 15000, VCMDuty: 1.7, Ambient: DefaultAmbient}, d: 750 * time.Millisecond},
	{load: Load{RPM: 15000, VCMDuty: -0.4, Ambient: DefaultAmbient}, d: 750 * time.Millisecond},
	{load: Load{RPM: 10000, VCMDuty: 0.5, Ambient: DefaultAmbient}, d: 1250 * time.Millisecond},
	{load: Load{RPM: 10000, VCMDuty: 0.5, Ambient: DefaultAmbient + 5}, d: 2 * time.Second},
	{load: Load{RPM: 15000, VCMDuty: 1, Ambient: DefaultAmbient + 5}, d: 37 * time.Millisecond},
	{load: Load{RPM: 15000, VCMDuty: 3, Ambient: DefaultAmbient + 5}, d: 10 * time.Minute, until: DefaultAmbient + 2},
	{load: Load{RPM: 12000, VCMDuty: 0, Ambient: DefaultAmbient}, d: 1234567 * time.Microsecond},
	{load: Load{RPM: 12000, VCMDuty: -1, Ambient: DefaultAmbient}, d: 30 * time.Minute, until: DefaultAmbient + 1},
	{load: Load{RPM: 9000, VCMDuty: 0.25, Ambient: DefaultAmbient - 3}, d: 5 * time.Second},
	// Far past the roadmap's speeds the air node is fast enough that the
	// explicit scheme sub-steps below 100 ms, so a stale stability bound
	// would show.
	{load: Load{RPM: 1e6, VCMDuty: 0.5, Ambient: DefaultAmbient}, d: 250 * time.Millisecond},
	{load: Load{RPM: 15000, VCMDuty: 0.5, Ambient: DefaultAmbient}, d: 250 * time.Millisecond},
}

// playScript plays transientScript on tr, calling check after every leg.
func playScript(t *testing.T, tr *Transient, clampDuty bool, check func(leg int, elapsed time.Duration, fired bool)) {
	t.Helper()
	for i, seg := range transientScript {
		load := seg.load
		if clampDuty {
			load.VCMDuty = math.Max(0, math.Min(1, load.VCMDuty))
		}
		if seg.until == 0 {
			tr.Advance(load, seg.d)
			check(i, seg.d, false)
			continue
		}
		warming := tr.State().Air < seg.until
		elapsed, fired := tr.AdvanceUntil(load, seg.d, func(s State) bool {
			if warming {
				return s.Air >= seg.until
			}
			return s.Air <= seg.until
		})
		check(i, elapsed, fired)
	}
}

// TestTransientCacheEquivalence runs the same transient trajectories on a
// cached and an uncached (NoCache) model: neither the per-transient
// operating-point entry nor the model's conductance memo may perturb a
// single sub-step. The state must be bit-equal after every leg, with
// fixed-property and with film-temperature air.
func TestTransientCacheEquivalence(t *testing.T) {
	for _, filmAir := range []bool{false, true} {
		name := "fixed-air"
		if filmAir {
			name = "film-air"
		}
		t.Run(name, func(t *testing.T) {
			models := make([]*Model, 3)
			for i := range models {
				m, err := New(ReferenceDrive)
				if err != nil {
					t.Fatal(err)
				}
				m.TemperatureDependentAir = filmAir
				models[i] = m
			}
			models[1].NoCache = true
			cached, direct, clamped := models[0].NewTransient(Uniform(DefaultAmbient)),
				models[1].NewTransient(Uniform(DefaultAmbient)),
				models[2].NewTransient(Uniform(DefaultAmbient))

			// The script twice over from the same start, so the second
			// pass runs on a warm model memo and begins with the
			// transient's entry left at another speed.
			for pass := 0; pass < 2; pass++ {
				for _, tr := range []*Transient{cached, direct, clamped} {
					tr.SetState(Uniform(DefaultAmbient))
				}
				var got []State
				var gotD []time.Duration
				var gotFired []bool
				playScript(t, cached, false, func(_ int, d time.Duration, fired bool) {
					got, gotD, gotFired = append(got, cached.State()), append(gotD, d), append(gotFired, fired)
				})
				playScript(t, direct, false, func(i int, d time.Duration, fired bool) {
					if st := direct.State(); st != got[i] || d != gotD[i] || fired != gotFired[i] {
						t.Fatalf("pass %d leg %d: cached %v (%v, %v) != direct %v (%v, %v)",
							pass, i, got[i], gotD[i], gotFired[i], st, d, fired)
					}
				})
				playScript(t, clamped, true, func(i int, _ time.Duration, _ bool) {
					if st := clamped.State(); st != got[i] {
						t.Fatalf("pass %d leg %d: duty %v not clamped: %v != %v",
							pass, i, transientScript[i].load.VCMDuty, got[i], st)
					}
				})
				for i, seg := range transientScript {
					if seg.until != 0 && !gotFired[i] {
						t.Fatalf("pass %d leg %d: AdvanceUntil never reached %v", pass, i, seg.until)
					}
				}
			}
			if cached.Now() != direct.Now() {
				t.Errorf("clocks diverged: %v != %v", cached.Now(), direct.Now())
			}
			if filmAir {
				return
			}
			// With fixed-property air the transient consults the model's
			// conductance memo only when the spindle speed changes: once
			// per speed switch, not once per 100 ms step.
			switches := 0
			prev := units.RPM(-1)
			for pass := 0; pass < 2; pass++ {
				for _, seg := range transientScript {
					if seg.load.RPM != prev {
						switches++
						prev = seg.load.RPM
					}
				}
			}
			stats := models[0].CacheStats()
			if n := stats.CondHits + stats.CondMisses; n != int64(switches) {
				t.Errorf("conductance lookups = %d, want one per speed switch (%d)", n, switches)
			}
		})
	}

	// The DTM duty cycle: busy at speed, idle, throttled low speed.
	t.Run("dtm-cycle", func(t *testing.T) {
		cached, err := New(ReferenceDrive)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := New(ReferenceDrive)
		if err != nil {
			t.Fatal(err)
		}
		direct.NoCache = true
		trC := cached.NewTransient(Uniform(DefaultAmbient))
		trD := direct.NewTransient(Uniform(DefaultAmbient))
		loads := []Load{
			{RPM: 15000, VCMDuty: 1, Ambient: DefaultAmbient},
			{RPM: 15000, VCMDuty: 0, Ambient: DefaultAmbient},
			{RPM: 9000, VCMDuty: 0, Ambient: DefaultAmbient},
		}
		for i := 0; i < 60; i++ {
			load := loads[i%len(loads)]
			trC.Advance(load, 750*time.Millisecond)
			trD.Advance(load, 750*time.Millisecond)
			if trC.State() != trD.State() {
				t.Fatalf("step %d: cached %v != direct %v", i, trC.State(), trD.State())
			}
		}
		stats := cached.CacheStats()
		if rate := stats.CondHitRate(); rate < 0.9 {
			t.Errorf("DTM-style trajectory should hit the conductance cache >90%%, got %.1f%% (%+v)",
				rate*100, stats)
		}
	})
}

// TestCacheConcurrentReaders hammers one shared model from many goroutines
// (the roadmap grid shares a model per platter size); run with -race.
func TestCacheConcurrentReaders(t *testing.T) {
	m, err := New(ReferenceDrive)
	if err != nil {
		t.Fatal(err)
	}
	want := m.SteadyState(WorstCase(15000))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if got := m.SteadyState(WorstCase(15000)); got != want {
					t.Errorf("concurrent read diverged: %v != %v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestCacheStatsConcurrent reads the hit/miss counters while writers are
// still hammering the cache: CacheStats and ResetCacheStats must be safe to
// call mid-sweep (the counters are atomics), and the totals must balance
// once the writers join; run with -race.
func TestCacheStatsConcurrent(t *testing.T) {
	m, err := New(ReferenceDrive)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, iters = 8, 200
	var writers, reader sync.WaitGroup
	stop := make(chan struct{})
	reader.Add(1)
	go func() { // concurrent reader: must not race with the writers
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s := m.CacheStats()
				if s.SteadyHits < 0 || s.SteadyMisses < 0 {
					t.Error("counter went negative")
					return
				}
			}
		}
	}()
	for g := 0; g < goroutines; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < iters; i++ {
				m.SteadyState(WorstCase(units.RPM(9000 + 1500*(g%3))))
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	reader.Wait()
	s := m.CacheStats()
	if got := s.SteadyHits + s.SteadyMisses; got != goroutines*iters {
		t.Errorf("hits+misses = %d, want %d", got, goroutines*iters)
	}
	m.ResetCacheStats()
	if s := m.CacheStats(); s != (CacheStats{}) {
		t.Errorf("after reset: %+v", s)
	}
}

// TestExportCache publishes the counters to a registry and checks the gauge
// values and that re-exporting overwrites rather than accumulates.
func TestExportCache(t *testing.T) {
	m, err := New(ReferenceDrive)
	if err != nil {
		t.Fatal(err)
	}
	m.SteadyState(WorstCase(15000))
	m.SteadyState(WorstCase(15000))
	reg := obs.NewRegistry()
	m.ExportCache(reg, "drive", "ref")
	m.ExportCache(reg, "drive", "ref") // idempotent: gauges overwrite
	find := func(name string) float64 {
		t.Helper()
		for _, mt := range reg.Snapshot() {
			if mt.Name == name && mt.Value != nil {
				return *mt.Value
			}
		}
		t.Fatalf("series %s not found", name)
		return 0
	}
	if hits := find("thermal_cache_steady_hits"); hits != 1 {
		t.Errorf("steady hits gauge = %v, want 1", hits)
	}
	if misses := find("thermal_cache_steady_misses"); misses != 1 {
		t.Errorf("steady misses gauge = %v, want 1", misses)
	}
	var nilModelSafe *obs.Registry
	m.ExportCache(nilModelSafe) // nil registry is a no-op
}

// TestCacheAliasFallsThrough: two distinct loads inside one quantization
// bucket must each get their own direct answer — the second must not read
// the first's entry.
func TestCacheAliasFallsThrough(t *testing.T) {
	cached, err := New(ReferenceDrive)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := New(ReferenceDrive)
	if err != nil {
		t.Fatal(err)
	}
	direct.NoCache = true

	a := Load{RPM: 15000, VCMDuty: 1, Ambient: DefaultAmbient}
	b := a
	b.RPM += units.RPM(rpmQuantum / 8) // same bucket, different exact point
	if steadyKey(a, false) != steadyKey(b, false) {
		t.Fatalf("test premise broken: loads landed in different buckets")
	}
	if got, want := cached.SteadyState(a), direct.SteadyState(a); got != want {
		t.Fatalf("load a: %v != %v", got, want)
	}
	if got, want := cached.SteadyState(b), direct.SteadyState(b); got != want {
		t.Fatalf("aliased load b leaked a's cache entry: %v != %v", got, want)
	}
}

// TestSolve4Singular pins the degenerate-geometry contract: a singular
// system reports ok=false instead of silently returning zeros.
func TestSolve4Singular(t *testing.T) {
	cases := []struct {
		name string
		a    [4][4]float64
	}{
		{"all-zero", [4][4]float64{}},
		{"duplicate-rows", [4][4]float64{
			{1, 2, 3, 4},
			{1, 2, 3, 4},
			{0, 1, 0, 0},
			{0, 0, 1, 0},
		}},
		{"zero-column", [4][4]float64{
			{1, 0, 3, 4},
			{2, 0, 1, 0},
			{3, 0, 0, 1},
			{4, 0, 2, 2},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, ok := solve4(c.a, [4]float64{1, 2, 3, 4}); ok {
				t.Error("singular system reported ok=true")
			}
		})
	}

	// And a well-conditioned identity still solves.
	id := [4][4]float64{{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, 1}}
	x, ok := solve4(id, [4]float64{1, 2, 3, 4})
	if !ok || x != [4]float64{1, 2, 3, 4} {
		t.Errorf("identity solve failed: %v ok=%v", x, ok)
	}
}

// TestValidatedModelNeverSingular: across the full roadmap operating range,
// a validated model's steady temperatures are always finite — the clamped
// conductance floors keep the matrix nonsingular.
func TestValidatedModelNeverSingular(t *testing.T) {
	m, err := New(ReferenceDrive)
	if err != nil {
		t.Fatal(err)
	}
	for _, rpm := range []units.RPM{0, 1, 500, 15000, 143470, 2e6} {
		st := m.SteadyState(Load{RPM: rpm, VCMDuty: 1, Ambient: DefaultAmbient})
		for _, v := range []float64{float64(st.Air), float64(st.Spindle), float64(st.Base), float64(st.Actuator)} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("rpm %v: non-finite steady state %v", rpm, st)
			}
		}
	}
}

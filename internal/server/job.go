package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/dtm"
	"repro/internal/geometry"
	"repro/internal/obs"
	"repro/internal/surrogate"
	"repro/internal/tournament"
	"repro/internal/trace"
)

// Job types accepted by POST /v1/jobs.
const (
	TypeRoadmap = "roadmap" // internal/scaling year-by-year sweep
	TypeFigure4 = "figure4" // internal/core trace-replay RPM sweep
	TypeDTM     = "dtm"     // internal/dtm closed-loop policy run
	TypeRAID    = "raid"    // internal/raid degraded-mode / recovery run
	TypeFleet   = "fleet"   // internal/fleet datacenter-scale thermal run

	TypeTournament = "tournament" // internal/tournament policy head-to-head
	TypeSurrogate  = "surrogate"  // internal/surrogate train / fast-path query
)

// Status is a job's lifecycle state. Transitions only move forward:
// queued -> running -> {done, failed, cancelled}, or queued -> cancelled.
type Status string

const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// terminal reports whether a status is final.
func (s Status) terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// Spec is the JSON body of POST /v1/jobs: the job type plus exactly one
// matching parameter block. Unknown fields are rejected at decode time, so
// a typo'd parameter fails loudly instead of silently running the default.
type Spec struct {
	Type string `json:"type"`

	// Workers bounds the job's internal sweep fan-out (the -workers knob
	// of the CLIs). 0 means sequential: the server's own worker pool is
	// the concurrency bound, and a job only fans out when asked to.
	Workers int `json:"workers,omitempty"`

	// TimeoutMS shortens the server's per-job deadline for this job. It
	// can never extend it: the server's JobTimeout is an admission-control
	// ceiling, not a default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	Roadmap    *RoadmapSpec    `json:"roadmap,omitempty"`
	Figure4    *Figure4Spec    `json:"figure4,omitempty"`
	DTM        *DTMSpec        `json:"dtm,omitempty"`
	RAID       *RAIDSpec       `json:"raid,omitempty"`
	Fleet      *FleetSpec      `json:"fleet,omitempty"`
	Tournament *TournamentSpec `json:"tournament,omitempty"`
	Surrogate  *SurrogateSpec  `json:"surrogate,omitempty"`
}

// RoadmapSpec parameterizes a roadmap job (internal/scaling.Roadmap).
// Zero values take the paper's defaults: 2002..2012, sizes 2.6/2.1/1.6,
// one platter.
type RoadmapSpec struct {
	FirstYear    int       `json:"first_year,omitempty"`
	LastYear     int       `json:"last_year,omitempty"`
	PlatterSizes []float64 `json:"platter_sizes,omitempty"`
	Platters     int       `json:"platters,omitempty"`
	VCMOff       bool      `json:"vcm_off,omitempty"`
	AmbientDelta float64   `json:"ambient_delta_c,omitempty"`
}

// Figure4Spec parameterizes a trace-replay RPM sweep. Workload is one of
// the paper's five names, or "all" for the full Figure 4 grid.
type Figure4Spec struct {
	Workload string `json:"workload"`

	// Requests scales each workload (0 = the service default, small
	// enough for an interactive response).
	Requests int `json:"requests,omitempty"`

	// RPMSteps overrides the paper's baseline+3x5000 sweep.
	RPMSteps []float64 `json:"rpm_steps,omitempty"`
}

// DTMSpec parameterizes a closed-loop policy run on the 2005 reference
// drive: dtm.PolicyRun, the scenario cmd/dtm's policy comparison runs.
type DTMSpec struct {
	// Policy is one of dtm.Policies: "envelope", "watermark",
	// "slack-ramp", "drpm" or "escalation".
	Policy string `json:"policy"`

	Requests int     `json:"requests,omitempty"` // 0 = 30000
	RatePerS float64 `json:"rate_per_s,omitempty"`
	Seed     int64   `json:"seed,omitempty"` // 0 = 11, the comparison seed

	// SampleEvery emits a progress line every N completions (0 = only the
	// final summary). Samples are on the sim clock, so they are as
	// deterministic as the run itself.
	SampleEvery int `json:"sample_every,omitempty"`
}

// RAIDSpec parameterizes a degraded-mode recovery run: one of the paper's
// workload arrays with a member disk failed mid-replay.
type RAIDSpec struct {
	Workload string `json:"workload"`
	Requests int    `json:"requests,omitempty"` // 0 = 2000

	FailDisk        int     `json:"fail_disk"`
	FailAtMS        int64   `json:"fail_at_ms,omitempty"` // 0 = 5000
	Spare           bool    `json:"spare,omitempty"`
	RebuildMBPerSec float64 `json:"rebuild_mb_per_sec,omitempty"`
	SampleEvery     int     `json:"sample_every,omitempty"`
}

// FleetSpec parameterizes a datacenter-scale fleet thermal run
// (internal/fleet.Run): the topology, the room scenario, the workload
// shape, and the placement/migration policy. Results stream one rack
// summary per rack plus a fleet-wide summary line.
type FleetSpec struct {
	Racks           int `json:"racks"`
	ChassisPerRack  int `json:"chassis_per_rack"`
	SlotsPerChassis int `json:"slots_per_chassis"`

	RequestsPerDrive int     `json:"requests_per_drive,omitempty"` // 0 = 40
	Seed             int64   `json:"seed,omitempty"`               // 0 = 1
	HotFraction      float64 `json:"hot_fraction,omitempty"`       // 0 = 0.25

	// Placement is "" or "static" (stream i on drive i) or "coolest"
	// (hottest streams on the coolest design-point slots).
	Placement string `json:"placement,omitempty"`

	// MigrateAtC enables temperature-threshold migration (0 = off);
	// HysteresisC is the re-admit margin below the threshold (0 = 2 C).
	MigrateAtC  float64 `json:"migrate_at_c,omitempty"`
	HysteresisC float64 `json:"hysteresis_c,omitempty"`

	// GenYears are the drive generations assigned round-robin across the
	// fleet's slots (empty = 2002..2005).
	GenYears []int `json:"gen_years,omitempty"`

	AirflowCFM    float64 `json:"airflow_cfm,omitempty"` // 0 = 30
	Recirculation float64 `json:"recirculation,omitempty"`

	CoolingFailure *CoolingFailureSpec `json:"cooling_failure,omitempty"`
}

// CoolingFailureSpec perturbs one rack's (or, with rack -1, the room's)
// inlet air by DeltaC for [at_ms, at_ms+duration_ms) on the sim clock.
type CoolingFailureSpec struct {
	Rack       int     `json:"rack"`
	AtMS       int64   `json:"at_ms,omitempty"`
	DurationMS int64   `json:"duration_ms"`
	DeltaC     float64 `json:"delta_c"`
}

// TournamentSpec parameterizes a policy tournament (internal/tournament):
// every listed policy runs every listed workload under every listed regime
// on identical request streams, and the job streams one "cell" line per
// result plus a closing "summary". Empty lists take the package's full
// bracket; cells are the deterministic checkpoint positions.
type TournamentSpec struct {
	Policies  []string `json:"policies,omitempty"`  // empty = reactive, predictive, slack-ramp
	Workloads []string `json:"workloads,omitempty"` // empty = all five paper workloads
	Regimes   []string `json:"regimes,omitempty"`   // empty = clean, fault

	Requests   int     `json:"requests,omitempty"`     // per cell, 0 = 4000
	Seed       int64   `json:"seed,omitempty"`         // 0 = 11
	LeadTimeMS int64   `json:"lead_time_ms,omitempty"` // predictive horizon, 0 = policy default
	LoadScale  float64 `json:"load_scale,omitempty"`   // arrival-rate multiplier, 0 = 2
}

// config maps the wire spec onto the tournament engine's configuration.
func (t *TournamentSpec) config(workers int, reg *obs.Registry) tournament.Config {
	return tournament.Config{
		Policies:  t.Policies,
		Workloads: t.Workloads,
		Regimes:   t.Regimes,
		Requests:  t.Requests,
		Seed:      t.Seed,
		LeadTime:  time.Duration(t.LeadTimeMS) * time.Millisecond,
		LoadScale: t.LoadScale,
		Workers:   workers,
		Registry:  reg,
	}
}

func (t *TournamentSpec) validate(cfg Config, async bool) error {
	tc := t.config(1, nil)
	if err := tc.Validate(); err != nil {
		return err
	}
	switch {
	case t.Requests < 0 || t.Requests > cfg.MaxRequests:
		return fmt.Errorf("requests %d outside [0,%d]", t.Requests, cfg.MaxRequests)
	case t.LeadTimeMS < 0 || t.LeadTimeMS > 600000:
		return fmt.Errorf("lead_time_ms %d outside [0,600000]", t.LeadTimeMS)
	case t.LoadScale > 100:
		return fmt.Errorf("load_scale %g outside [0,100]", t.LoadScale)
	case len(t.Policies) > 16 || len(t.Workloads) > 16 || len(t.Regimes) > 16:
		return fmt.Errorf("tournament axes capped at 16 entries each")
	}
	// Size is bounded per submission path, like fleet: work is the total
	// simulated request count across the bracket.
	requests := t.Requests
	if requests == 0 {
		requests = 4000
	}
	work := int64(tc.Cells()) * int64(requests)
	if work > maxTournamentWork {
		return fmt.Errorf("tournament of %d cell-requests exceeds the %d cap", work, maxTournamentWork)
	}
	if !async && work > maxSyncTournamentWork {
		return fmt.Errorf("tournament of %d cell-requests exceeds the synchronous cap of %d; submit with ?async=1 and poll the result",
			work, maxSyncTournamentWork)
	}
	return nil
}

// SurrogateSpec parameterizes a surrogate job (internal/surrogate). Mode
// "train" samples the exact engine over a grid, fits and cross-validates
// an interpolation model, and installs it as the server's serving model;
// mode "query" answers a batch of roadmap queries — through the installed
// model when possible, transparently falling back to the exact engine for
// out-of-hull queries, for models whose cross-validated error exceeds
// MaxRelErr, or when no model is installed. Every answer line carries its
// "source" so clients can see which path served it.
type SurrogateSpec struct {
	Mode string `json:"mode"` // "train" or "query"

	// Train configures the sampling grid (mode "train"; nil = defaults:
	// 2002..2012, six RPM nodes, one platter 3.5", all five workloads).
	Train *SurrogateTrainSpec `json:"train,omitempty"`

	// Queries are answered in order, one NDJSON "answer" line each
	// (mode "query").
	Queries []surrogate.Query `json:"queries,omitempty"`

	// Exact forces every query down the exact path — the verification
	// switch that makes fallback answers provably byte-identical to
	// direct exact answers.
	Exact bool `json:"exact,omitempty"`

	// MaxRelErr is the error bound: a model whose cross-validated max
	// relative error (any channel) exceeds it is not trusted, and queries
	// fall back to the exact engine (0 = trust any installed model).
	MaxRelErr float64 `json:"max_rel_err,omitempty"`
}

// SurrogateTrainSpec is the wire form of surrogate.TrainConfig. Empty
// axes take the serving defaults.
type SurrogateTrainSpec struct {
	Years     []int                `json:"years,omitempty"`
	RPMs      []float64            `json:"rpms,omitempty"`
	Hardware  []surrogate.Hardware `json:"hardware,omitempty"`
	Workloads []string             `json:"workloads,omitempty"`
	Requests  int                  `json:"requests,omitempty"` // 0 = 2000
	Refine    bool                 `json:"refine,omitempty"`
	Folds     int                  `json:"folds,omitempty"`  // 0 = 5
	Probes    int                  `json:"probes,omitempty"` // 0 = 8
	Seed      int64                `json:"seed,omitempty"`   // 0 = 1
}

// config maps the wire spec onto the training configuration.
func (t *SurrogateTrainSpec) config(workers int) surrogate.TrainConfig {
	cfg := surrogate.TrainConfig{
		Years:     t.Years,
		RPMs:      t.RPMs,
		Hardware:  t.Hardware,
		Workloads: t.Workloads,
		Requests:  t.Requests,
		Refine:    t.Refine,
		Folds:     t.Folds,
		Probes:    t.Probes,
		Seed:      t.Seed,
		Workers:   workers,
	}
	if len(cfg.Years) == 0 {
		for y := 2002; y <= 2012; y++ {
			cfg.Years = append(cfg.Years, y)
		}
	}
	if len(cfg.RPMs) == 0 {
		cfg.RPMs = []float64{7200, 10000, 12000, 15000, 18000, 21000}
	}
	if len(cfg.Hardware) == 0 {
		cfg.Hardware = []surrogate.Hardware{{Platters: 1, FormFactor: geometry.FormFactor35.String()}}
	}
	if len(cfg.Workloads) == 0 {
		for _, w := range trace.Workloads {
			cfg.Workloads = append(cfg.Workloads, w.Name)
		}
	}
	return cfg
}

func (sp *SurrogateSpec) validate(cfg Config, async bool) error {
	switch sp.Mode {
	case "train":
		if len(sp.Queries) > 0 || sp.Exact || sp.MaxRelErr != 0 {
			return fmt.Errorf("surrogate train jobs take only a %q block", "train")
		}
		t := sp.Train
		if t == nil {
			t = &SurrogateTrainSpec{}
		}
		tc := t.config(1)
		if err := tc.Validate(); err != nil {
			return err
		}
		switch {
		case t.Requests < 0 || t.Requests > cfg.MaxRequests:
			return fmt.Errorf("requests %d outside [0,%d]", t.Requests, cfg.MaxRequests)
		case len(tc.Years) > 64 || len(tc.RPMs) > 64:
			return fmt.Errorf("surrogate grid axes capped at 64 nodes each")
		case len(tc.Hardware) > 32 || len(tc.Workloads) > 16:
			return fmt.Errorf("surrogate hardware/workload axes capped at 32/16 entries")
		}
		// Work is the total simulated request count: every latency grid
		// cell plus every cross-validation probe replays a trace.
		requests := t.Requests
		if requests == 0 {
			requests = surrogate.DefaultRequests
		}
		folds, probes := tc.Folds, tc.Probes
		if folds == 0 {
			folds = surrogate.DefaultFolds
		}
		if probes == 0 {
			probes = surrogate.DefaultProbes
		}
		work := int64(tc.LatencyCells()+folds*probes) * int64(requests)
		if work > maxSurrogateWork {
			return fmt.Errorf("surrogate training of %d cell-requests exceeds the %d cap", work, maxSurrogateWork)
		}
		if !async && work > maxSyncSurrogateWork {
			return fmt.Errorf("surrogate training of %d cell-requests exceeds the synchronous cap of %d; submit with ?async=1 and poll the result",
				work, maxSyncSurrogateWork)
		}
		return nil
	case "query":
		if sp.Train != nil {
			return fmt.Errorf("surrogate query jobs take no %q block", "train")
		}
		switch {
		case len(sp.Queries) == 0:
			return fmt.Errorf("surrogate query job has no queries")
		case len(sp.Queries) > maxSurrogateQueries:
			return fmt.Errorf("%d queries exceeds the %d-query cap", len(sp.Queries), maxSurrogateQueries)
		case sp.MaxRelErr < 0 || sp.MaxRelErr > 10:
			return fmt.Errorf("max_rel_err %g outside [0,10]", sp.MaxRelErr)
		}
		for i, q := range sp.Queries {
			if err := q.Validate(); err != nil {
				return fmt.Errorf("query %d: %w", i, err)
			}
		}
		return nil
	case "":
		return fmt.Errorf("surrogate job missing mode (want %q or %q)", "train", "query")
	default:
		return fmt.Errorf("unknown surrogate mode %q", sp.Mode)
	}
}

// jobKind is one job type's parameter block: its admission check and its
// runner. A new job type is one Spec field, one block type implementing
// jobKind, and one row in jobKinds.
type jobKind interface {
	// validate is the block's admission check; async tells size-sensitive
	// blocks whether the submission rides the async path.
	validate(cfg Config, async bool) error
	// run executes the job, emitting its result lines through env.
	run(ctx context.Context, s *Server, spec Spec, env runEnv) error
}

// kindRow is one jobKinds entry. block returns the spec's block for the
// type, nil when it is absent; zero, when set, is the all-defaults block an
// absent one stands for.
type kindRow struct {
	block func(*Spec) jobKind
	zero  jobKind
}

// jobKinds maps each Spec.Type to its parameter block.
var jobKinds = map[string]kindRow{
	TypeRoadmap:    {func(s *Spec) jobKind { return blockOf(s.Roadmap) }, &RoadmapSpec{}},
	TypeFigure4:    {func(s *Spec) jobKind { return blockOf(s.Figure4) }, nil},
	TypeDTM:        {func(s *Spec) jobKind { return blockOf(s.DTM) }, nil},
	TypeRAID:       {func(s *Spec) jobKind { return blockOf(s.RAID) }, nil},
	TypeFleet:      {func(s *Spec) jobKind { return blockOf(s.Fleet) }, nil},
	TypeTournament: {func(s *Spec) jobKind { return blockOf(s.Tournament) }, &TournamentSpec{}},
	TypeSurrogate:  {func(s *Spec) jobKind { return blockOf(s.Surrogate) }, nil},
}

// blockOf is p as a jobKind, and a nil interface for a nil block.
func blockOf[P interface {
	*T
	jobKind
}, T any](p P) jobKind {
	if p == nil {
		return nil
	}
	return p
}

// kind resolves the spec's type to its parameter block. A spec carries
// exactly its own type's block, or none for a type whose block is
// optional.
func (s *Spec) kind() (jobKind, error) {
	k, ok := jobKinds[s.Type]
	switch {
	case s.Type == "":
		return nil, fmt.Errorf("missing job type")
	case !ok:
		return nil, fmt.Errorf("unknown job type %q", s.Type)
	}
	blocks := 0
	for _, other := range jobKinds {
		if other.block(s) != nil {
			blocks++
		}
	}
	b := k.block(s)
	switch {
	case k.zero == nil && (b == nil || blocks != 1):
		return nil, fmt.Errorf("type %q needs exactly a %q block", s.Type, s.Type)
	case blocks > 1 || (blocks == 1 && b == nil):
		return nil, fmt.Errorf("type %q takes only a %q block", s.Type, s.Type)
	case b == nil:
		return k.zero, nil
	}
	return b, nil
}

// validate is the admission-control gate: everything a runner would choke
// on — and everything that would let one request monopolize the host — is
// rejected here with a client-attributable message. async tells the
// size-sensitive job types whether the submission rides the async path;
// the sync path carries tighter size bounds because its caller holds an
// open connection for the whole run.
func (s Spec) validate(cfg Config, async bool) error {
	if s.Workers < 0 || s.Workers > maxJobWorkers {
		return fmt.Errorf("workers %d outside [0,%d]", s.Workers, maxJobWorkers)
	}
	if s.TimeoutMS < 0 {
		return fmt.Errorf("timeout_ms %d is negative", s.TimeoutMS)
	}
	b, err := s.kind()
	if err != nil {
		return err
	}
	return b.validate(cfg, async)
}

func (r *RoadmapSpec) validate(Config, bool) error {
	first, last := r.FirstYear, r.LastYear
	if first == 0 {
		first = 2002
	}
	if last == 0 {
		last = 2012
	}
	switch {
	case first < 1990 || first > 2100:
		return fmt.Errorf("first_year %d outside [1990,2100]", first)
	case last < first:
		return fmt.Errorf("year range [%d,%d] inverted", first, last)
	case last-first > 50:
		return fmt.Errorf("year range [%d,%d] longer than 50 years", first, last)
	case r.Platters < 0 || r.Platters > 4:
		return fmt.Errorf("platters %d outside [1,4]", r.Platters)
	case len(r.PlatterSizes) > 8:
		return fmt.Errorf("%d platter sizes, want at most 8", len(r.PlatterSizes))
	}
	for _, sz := range r.PlatterSizes {
		if sz < 0.8 || sz > 5.25 {
			return fmt.Errorf("platter size %g\" outside [0.8,5.25]", sz)
		}
	}
	return nil
}

// lookupWorkloads resolves a workload name ("all" = the full five) against
// the built-in set.
func lookupWorkloads(name string) ([]trace.Params, error) {
	if name == "all" {
		return trace.Workloads, nil
	}
	w, err := trace.WorkloadByName(name)
	if err != nil {
		return nil, err
	}
	return []trace.Params{w}, nil
}

func (f *Figure4Spec) validate(cfg Config, _ bool) error {
	if _, err := lookupWorkloads(f.Workload); err != nil {
		return err
	}
	if f.Requests < 0 || f.Requests > cfg.MaxRequests {
		return fmt.Errorf("requests %d outside [0,%d]", f.Requests, cfg.MaxRequests)
	}
	if len(f.RPMSteps) > 8 {
		return fmt.Errorf("%d rpm steps, want at most 8", len(f.RPMSteps))
	}
	for _, rpm := range f.RPMSteps {
		if rpm < 1000 || rpm > 200000 {
			return fmt.Errorf("rpm step %g outside [1000,200000]", rpm)
		}
	}
	return nil
}

func (d *DTMSpec) validate(cfg Config, _ bool) error {
	if !slices.Contains(dtm.Policies, d.Policy) {
		return fmt.Errorf("unknown dtm policy %q", d.Policy)
	}
	switch {
	case d.Requests < 0 || d.Requests > cfg.MaxRequests:
		return fmt.Errorf("requests %d outside [0,%d]", d.Requests, cfg.MaxRequests)
	case d.RatePerS < 0 || d.RatePerS > 1e6:
		return fmt.Errorf("rate_per_s %g outside [0,1e6]", d.RatePerS)
	case d.SampleEvery < 0:
		return fmt.Errorf("sample_every %d is negative", d.SampleEvery)
	}
	return nil
}

func (r *RAIDSpec) validate(cfg Config, _ bool) error {
	ws, err := lookupWorkloads(r.Workload)
	if err != nil {
		return err
	}
	if r.Workload == "all" {
		return fmt.Errorf("raid jobs run one workload, not %q", r.Workload)
	}
	switch {
	case r.Requests < 0 || r.Requests > cfg.MaxRequests:
		return fmt.Errorf("requests %d outside [0,%d]", r.Requests, cfg.MaxRequests)
	case r.FailDisk < 0 || r.FailDisk >= ws[0].Disks:
		return fmt.Errorf("fail_disk %d outside [0,%d) for workload %s", r.FailDisk, ws[0].Disks, ws[0].Name)
	case r.FailAtMS < 0:
		return fmt.Errorf("fail_at_ms %d is negative", r.FailAtMS)
	case r.RebuildMBPerSec < 0 || r.RebuildMBPerSec > 10000:
		return fmt.Errorf("rebuild_mb_per_sec %g outside [0,10000]", r.RebuildMBPerSec)
	case r.SampleEvery < 0:
		return fmt.Errorf("sample_every %d is negative", r.SampleEvery)
	}
	return nil
}

// fleetPlacements is the accepted FleetSpec.Placement set ("" = static).
var fleetPlacements = map[string]bool{"": true, "static": true, "coolest": true}

// maxFleetFailureMS bounds the cooling-failure window: the post-run drain
// advances every affected drive's thermal transient to the window's end,
// so an unbounded duration is an unbounded amount of sim work.
const maxFleetFailureMS = 600000 // 10 sim-minutes

func (f *FleetSpec) validate(cfg Config, async bool) error {
	switch {
	case f.Racks < 1 || f.Racks > 10000:
		return fmt.Errorf("racks %d outside [1,10000]", f.Racks)
	case f.ChassisPerRack < 1 || f.ChassisPerRack > 1000:
		return fmt.Errorf("chassis_per_rack %d outside [1,1000]", f.ChassisPerRack)
	case f.SlotsPerChassis < 1 || f.SlotsPerChassis > 64:
		return fmt.Errorf("slots_per_chassis %d outside [1,64]", f.SlotsPerChassis)
	case f.RequestsPerDrive < 0 || f.RequestsPerDrive > 10000:
		return fmt.Errorf("requests_per_drive %d outside [0,10000]", f.RequestsPerDrive)
	case f.HotFraction < 0 || f.HotFraction > 1:
		return fmt.Errorf("hot_fraction %g outside [0,1]", f.HotFraction)
	case !fleetPlacements[f.Placement]:
		return fmt.Errorf("unknown placement %q", f.Placement)
	case f.MigrateAtC < 0 || f.MigrateAtC > 100:
		return fmt.Errorf("migrate_at_c %g outside [0,100]", f.MigrateAtC)
	case f.HysteresisC < 0 || f.HysteresisC > 50:
		return fmt.Errorf("hysteresis_c %g outside [0,50]", f.HysteresisC)
	case f.AirflowCFM < 0 || f.AirflowCFM > 10000:
		return fmt.Errorf("airflow_cfm %g outside [0,10000]", f.AirflowCFM)
	case f.Recirculation < 0 || f.Recirculation >= 1:
		return fmt.Errorf("recirculation %g outside [0,1)", f.Recirculation)
	case len(f.GenYears) > 16:
		return fmt.Errorf("%d generation years, want at most 16", len(f.GenYears))
	}
	for _, y := range f.GenYears {
		if y < 1990 || y > 2100 {
			return fmt.Errorf("generation year %d outside [1990,2100]", y)
		}
	}
	if cf := f.CoolingFailure; cf != nil {
		switch {
		case cf.Rack < -1 || cf.Rack >= f.Racks:
			return fmt.Errorf("cooling_failure rack %d outside [-1,%d)", cf.Rack, f.Racks)
		case cf.AtMS < 0 || cf.DurationMS < 0:
			return fmt.Errorf("cooling_failure window [%d,+%d] not in sim time", cf.AtMS, cf.DurationMS)
		case cf.AtMS+cf.DurationMS > maxFleetFailureMS:
			return fmt.Errorf("cooling_failure window ends at %dms, cap %dms", cf.AtMS+cf.DurationMS, maxFleetFailureMS)
		case cf.DeltaC < 0 || cf.DeltaC > 50:
			return fmt.Errorf("cooling_failure delta_c %g outside [0,50]", cf.DeltaC)
		}
	}
	// Size is bounded per submission path: a million-drive spec is only
	// admissible as an async job — the sync path would pin one HTTP
	// connection and one pool worker to a run that outlives any client.
	drives := f.Racks * f.ChassisPerRack * f.SlotsPerChassis
	if drives > cfg.MaxFleetDrives {
		return fmt.Errorf("fleet of %d drives exceeds the %d-drive cap", drives, cfg.MaxFleetDrives)
	}
	if !async && drives > cfg.MaxSyncFleetDrives {
		return fmt.Errorf("fleet of %d drives exceeds the synchronous cap of %d; submit with ?async=1 and poll the result",
			drives, cfg.MaxSyncFleetDrives)
	}
	return nil
}

// workers resolves the job's internal fan-out (default sequential).
func (s Spec) workers() int {
	if s.Workers <= 0 {
		return 1
	}
	return s.Workers
}

// Info is a job's externally-visible state, the body of GET /v1/jobs/{id}.
// Wall-clock timestamps live here, never in result bodies — result bytes
// must depend only on the spec.
type Info struct {
	ID          string     `json:"id"`
	Type        string     `json:"type"`
	Status      Status     `json:"status"`
	Error       string     `json:"error,omitempty"`
	CreatedAt   time.Time  `json:"created_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	ResultLines int        `json:"result_lines"`
	ResultBytes int64      `json:"result_bytes"`
}

// job is one tracked submission: the spec, the lifecycle state machine,
// and the buffered result stream.
type job struct {
	id      string
	spec    Spec
	key     string // idempotency key, "" when the client sent none
	created time.Time
	buf     *resultBuffer

	mu       sync.Mutex
	status   Status
	err      string
	started  time.Time
	finished time.Time
	cancel   func() // set while running; cancels the job's context

	// Journaling state (all guarded by mu). track mirrors "the server has
	// a journal": emitted lines are copied into pending until a checkpoint
	// or completion makes them durable. A job replayed mid-run carries
	// skip = its durable line count: the deterministic re-run swallows (and
	// byte-verifies) that prefix instead of double-emitting it.
	track     bool
	pending   []string // emitted, not yet journaled (newline stripped)
	journaled int      // durable result lines (a prefix of buf)
	skip      int      // resume: lines left to verify-skip
	verifyIdx int      // next buffer index to verify against

	// ckptMu serializes whole checkpoints (take pending -> append chunk ->
	// confirm) so a runner checkpoint and a cancel-path flush can never
	// interleave their chunk records out of buffer order.
	ckptMu sync.Mutex
}

// errorLine is the in-band terminal record appended when a job fails or is
// cancelled, so a client already consuming the 200 stream still learns the
// outcome. Successful jobs never emit one, keeping their bodies spec-pure.
type errorLine struct {
	Kind  string `json:"kind"` // "error"
	Error string `json:"error"`
}

// emit encodes one result line into the job's buffer and, when the server
// journals, into the pending set the next checkpoint flushes. On a resumed
// run the first skip calls are swallowed — the lines are already in the
// buffer from replay — but each recomputed line is verified byte-for-byte
// against the journaled one, so a broken determinism contract fails the
// job loudly instead of serving a silently-spliced result.
func (j *job) emit(v any) error {
	line, err := encodeLine(v, j.buf.lineCount)
	if err != nil {
		return err
	}
	j.mu.Lock()
	if j.skip > 0 {
		idx := j.verifyIdx
		j.verifyIdx++
		j.skip--
		j.mu.Unlock()
		if prev := j.buf.line(idx); !bytes.Equal(prev, line) {
			return fmt.Errorf("resume divergence at line %d: recomputed result differs from journaled bytes", idx)
		}
		return nil
	}
	track := j.track
	j.mu.Unlock()

	if err := j.buf.append(line); err != nil {
		return err
	}
	if track {
		j.mu.Lock()
		j.pending = append(j.pending, string(line[:len(line)-1]))
		j.mu.Unlock()
	}
	return nil
}

// errNonFinite fails a job whose result holds a NaN or an infinity, which
// JSON cannot carry.
var errNonFinite = errors.New("non-finite result")

// encodeLine encodes one NDJSON result line, newline included. A value JSON
// cannot carry fails as errNonFinite naming the line's index (line is
// called only then), so a thermal singularity is a clear job failure, not
// a half-written stream. A resumed run never reaches it inside its
// journaled prefix: that prefix was encoded once already.
func encodeLine(v any, line func() int) ([]byte, error) {
	b, err := json.Marshal(v)
	var uv *json.UnsupportedValueError
	if errors.As(err, &uv) {
		return nil, fmt.Errorf("%w at line %d: %s", errNonFinite, line(), uv.Str)
	}
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// takePending claims the emitted-but-not-durable lines for a checkpoint.
func (j *job) takePending() []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	p := j.pending
	j.pending = nil
	return p
}

// restorePending puts lines back after a failed journal append, ahead of
// anything emitted since, preserving result order for the retry.
func (j *job) restorePending(lines []string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.pending = append(lines, j.pending...)
}

// confirmJournaled advances the durable-prefix counter after a successful
// chunk append.
func (j *job) confirmJournaled(n int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.journaled += n
}

// markRunning moves queued -> running; false means the job was cancelled
// while queued and must not run.
func (j *job) markRunning(cancel func()) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusQueued {
		return false
	}
	j.status = StatusRunning
	j.started = time.Now()
	j.cancel = cancel
	return true
}

// finish records the terminal state, appends the in-band error line for
// unsuccessful outcomes, and closes the result buffer. It is a no-op if
// the job is already terminal. With from != "", the transition only
// happens from that exact state — the atomic guard requestCancel needs so
// it can never cancel-mark a job a worker just started.
func (j *job) finish(from, st Status, err error) bool {
	j.mu.Lock()
	if j.status.terminal() || (from != "" && j.status != from) {
		j.mu.Unlock()
		return false
	}
	j.status = st
	j.finished = time.Now()
	if err != nil {
		j.err = err.Error()
	}
	j.mu.Unlock()
	if st == StatusFailed || st == StatusCancelled {
		msg := j.err
		if msg == "" {
			msg = string(st)
		}
		_ = j.emit(errorLine{Kind: "error", Error: msg})
	}
	j.buf.close()
	return true
}

// requestCancel cancels the job: a queued job terminates immediately; a
// running one has its context cancelled and terminates at the runner's
// next admission check. It reports whether this call itself finished the
// job (queued -> cancelled), so the caller can record the terminal metric
// exactly once — a running job's metric is recorded by the worker instead.
func (j *job) requestCancel() bool {
	if j.finish(StatusQueued, StatusCancelled, fmt.Errorf("job cancelled")) {
		return true
	}
	j.mu.Lock()
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return false
}

// snapshot returns the current status and error string.
func (j *job) snapshot() (Status, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status, j.err
}

// info renders the job for the status endpoints.
func (j *job) info() Info {
	lines, bytes := j.buf.stats()
	j.mu.Lock()
	defer j.mu.Unlock()
	in := Info{
		ID:          j.id,
		Type:        j.spec.Type,
		Status:      j.status,
		Error:       j.err,
		CreatedAt:   j.created,
		ResultLines: lines,
		ResultBytes: bytes,
	}
	if !j.started.IsZero() {
		t := j.started
		in.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		in.FinishedAt = &t
	}
	return in
}

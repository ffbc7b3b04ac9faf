// Package server turns the simulator into a long-running service: HTTP/JSON
// job submission for roadmap sweeps, Figure-4 trace replays, DTM policy runs
// and RAID recovery scenarios, executed on a bounded worker pool with
// admission control, NDJSON result streaming, live metrics and graceful
// drain. Everything is stdlib net/http; the simulation work is delegated to
// the internal packages the CLIs already use, through their ctx-aware
// streaming entry points, so a seeded job's result bytes depend only on its
// spec — never on worker count, timing, or who else is on the queue.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/fleet"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/surrogate"
)

// maxJobWorkers caps a single job's internal fan-out.
const maxJobWorkers = 32

// Size caps of the tournament and surrogate job types. Work is the total
// simulated request count: a tournament's cells times per-cell requests, a
// surrogate training's grid cells plus cross-validation probes times
// per-replay requests. The sync caps are the tighter bounds for
// synchronous submissions, which hold one HTTP connection and one pool
// worker for the whole run; larger jobs must go through ?async=1.
const (
	maxTournamentWork     = 2000000
	maxSyncTournamentWork = 100000
	maxSurrogateWork      = 10000000
	maxSyncSurrogateWork  = 1000000
	maxSurrogateQueries   = 4096 // one query job's batch size
)

// Config sizes the service. Zero values take the defaults noted per field.
type Config struct {
	Addr string // listen address, default 127.0.0.1:8080; ":0" picks a port

	Workers    int // concurrent jobs, default 2
	QueueDepth int // queued (not yet running) jobs before 429, default 16

	JobTimeout   time.Duration // per-job ceiling, default 2m
	DrainTimeout time.Duration // graceful-drain budget on Shutdown, default 30s
	RetryAfter   time.Duration // Retry-After hint on 429/503, default 1s

	MaxRequests    int   // per-job trace-length cap, default 200000
	MaxResultBytes int64 // per-job buffered result cap, default 16 MiB
	MaxJobs        int   // retained job records before oldest-terminal eviction, default 256

	// MaxFleetDrives caps a fleet job's total drive count regardless of
	// submission path (default 1,000,000). MaxSyncFleetDrives is the
	// tighter bound for synchronous submissions, which hold one HTTP
	// connection and one pool worker for the whole run (default 20,000);
	// larger fleets must go through ?async=1.
	MaxFleetDrives     int
	MaxSyncFleetDrives int

	// SurrogateModel preloads a trained surrogate model at boot (the
	// daemon's -surrogate-model flag); nil starts without one, and every
	// query falls back to the exact engine until a train job installs one.
	SurrogateModel *surrogate.Model

	// JournalDir enables crash safety: every admission, checkpoint and
	// completion is fsync-journaled there, and startup replays the log —
	// completed jobs serve their buffered results, interrupted ones resume
	// from their last checkpoint. Empty runs in-memory only.
	JournalDir      string
	CheckpointEvery int           // completions between checkpoint marks in long runs, default 2000
	CompactEvery    time.Duration // journal compaction period, default 1m

	// Chaos injects seeded faults (worker panics, journal write errors,
	// stalls) for the robustness suite. nil in production.
	Chaos *chaos.Chaos

	// Logf receives operational messages (journal recovery, compaction).
	// nil uses fmt.Printf, matching the daemon's existing logging.
	Logf func(format string, args ...any)

	Registry *obs.Registry // metrics destination; nil gets a private registry
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:8080"
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 2 * time.Minute
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxRequests <= 0 {
		c.MaxRequests = 200000
	}
	if c.MaxResultBytes <= 0 {
		c.MaxResultBytes = 16 << 20
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 256
	}
	if c.MaxFleetDrives <= 0 {
		c.MaxFleetDrives = 1000000
	}
	if c.MaxSyncFleetDrives <= 0 {
		c.MaxSyncFleetDrives = 20000
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 2000
	}
	if c.CompactEvery <= 0 {
		c.CompactEvery = time.Minute
	}
	if c.Logf == nil {
		c.Logf = func(format string, args ...any) { fmt.Printf(format+"\n", args...) }
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	return c
}

// lifeState is the server's lifecycle: journal replay in progress, serving,
// or draining for shutdown. /readyz exposes it so orchestrators can tell
// boot from shutdown.
type lifeState int

const (
	lifeReplaying lifeState = iota
	lifeReady
	lifeDraining
)

func (l lifeState) String() string {
	switch l {
	case lifeReplaying:
		return "replaying"
	case lifeDraining:
		return "draining"
	default:
		return "ready"
	}
}

// Server is the simulation service: a job registry, a bounded queue feeding
// a fixed worker pool, and the HTTP surface in handlers.go.
type Server struct {
	cfg      Config
	reg      *obs.Registry
	met      *metrics
	fleetMet *fleet.Metrics
	surMet   *surrogate.Metrics
	mux      *http.ServeMux

	// surMu guards the installed surrogate serving model and its matching
	// exact-fallback engine. With no model installed the engine runs at
	// the package defaults, so fallback answers are well-defined from
	// boot.
	surMu    sync.RWMutex
	surModel *surrogate.Model
	surExact *surrogate.Exact

	// queueMu guards queue sends against close(queue): enqueue and
	// beginDrain take it, so a send can never race the close. It also
	// guards the lifecycle state and the replay backlog.
	queueMu sync.Mutex
	queue   chan *job
	state   lifeState

	// backlog holds replayed jobs that did not fit the bounded queue at
	// startup. They are acknowledged, journaled work and must not be failed
	// for a capacity accident: workers admit them as slots free up, and
	// external submissions yield (429) until the backlog is empty.
	backlog []*job

	jobsMu sync.Mutex
	jobs   map[string]*job
	order  []string          // insertion order, for listing and eviction
	keys   map[string]string // idempotency key -> job id
	nextID int

	// jrnl is the durable job log (nil without -journal). crashed is the
	// test hook that simulates a SIGKILL: once set, nothing more is
	// journaled, so the file holds exactly what was durable at the "crash".
	jrnl    *journal.Journal
	crashed atomic.Bool

	// runCtx is the ancestor of every job context; runCancel hard-stops
	// in-flight jobs when the drain deadline passes.
	runCtx    context.Context
	runCancel context.CancelFunc
	workerWG  sync.WaitGroup

	httpSrv  *http.Server
	listener net.Listener
}

// New builds a Server, replaying the journal when one is configured;
// Start or Run actually serves.
func New(cfg Config) (*Server, error) {
	s := newServer(cfg)
	if s.cfg.JournalDir != "" {
		if err := s.openJournal(); err != nil {
			return nil, err
		}
	}
	s.startWorkers()
	return s, nil
}

// newServer builds everything but the worker pool and journal. Tests use
// it directly so the queue fills deterministically with nothing draining
// it; with a JournalDir configured the server starts in the replaying
// state and openJournal flips it to ready.
func newServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		reg:      cfg.Registry,
		met:      newMetrics(cfg.Registry),
		fleetMet: fleet.NewMetrics(cfg.Registry),
		surMet:   surrogate.NewMetrics(cfg.Registry),
		queue:    make(chan *job, cfg.QueueDepth),
		jobs:     make(map[string]*job),
		keys:     make(map[string]string),
	}
	if cfg.SurrogateModel != nil {
		s.installSurrogate(cfg.SurrogateModel)
	} else {
		// The zero ExactConfig is always valid, so the error is impossible.
		s.surExact, _ = surrogate.NewExact(surrogate.ExactConfig{})
	}
	if cfg.JournalDir == "" {
		s.state = lifeReady
	}
	s.runCtx, s.runCancel = context.WithCancel(context.Background())
	s.mux = s.routes()
	s.httpSrv = &http.Server{Handler: s.mux}
	return s
}

func (s *Server) logf(format string, args ...any) { s.cfg.Logf(format, args...) }

// lifecycle reports the current state.
func (s *Server) lifecycle() lifeState {
	s.queueMu.Lock()
	defer s.queueMu.Unlock()
	return s.state
}

// setState transitions the lifecycle; draining is terminal.
func (s *Server) setState(l lifeState) {
	s.queueMu.Lock()
	defer s.queueMu.Unlock()
	if s.state != lifeDraining {
		s.state = l
	}
}

func (s *Server) startWorkers() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
}

// Handler exposes the routed mux, mainly for httptest.
func (s *Server) Handler() http.Handler { return s.mux }

// Start binds the configured address and serves in the background. After it
// returns, Addr reports the bound address (useful with ":0").
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.listener = ln
	go func() {
		if err := s.httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			// Serve only fails this way if the listener breaks under us;
			// jobs already accepted still drain via Shutdown.
			fmt.Printf("simd: serve error: %v\n", err)
		}
	}()
	return nil
}

// Addr returns the bound listen address after Start.
func (s *Server) Addr() string {
	if s.listener == nil {
		return s.cfg.Addr
	}
	return s.listener.Addr().String()
}

// Run serves until ctx is done, then drains gracefully.
func (s *Server) Run(ctx context.Context) error {
	if err := s.Start(); err != nil {
		return err
	}
	<-ctx.Done()
	drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	return s.Shutdown(drainCtx)
}

// Shutdown drains the server: new submissions get 503, queued and running
// jobs get until ctx expires to finish, then are cancelled. The HTTP
// listener closes last so status endpoints and /metrics answer throughout
// the drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.beginDrain()

	done := make(chan struct{})
	go func() {
		s.workerWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		// Deadline passed: hard-cancel in-flight jobs and wait for the
		// workers to observe it. The runners check their context at every
		// request admission, so this is prompt.
		s.runCancel()
		<-done
	}
	s.runCancel()

	httpCtx := ctx
	if ctx.Err() != nil {
		var cancel context.CancelFunc
		httpCtx, cancel = context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
	}
	err := s.httpSrv.Shutdown(httpCtx)
	if s.jrnl != nil {
		if jerr := s.jrnl.Close(); err == nil {
			err = jerr
		}
	}
	return err
}

// Crash simulates a SIGKILL for the robustness tests: journaling stops
// dead (nothing after the last durable record lands), in-flight jobs are
// hard-cancelled, and the listener closes without any drain courtesy. The
// journal directory afterwards holds exactly what a kill -9 at that
// instant would have left.
func (s *Server) Crash() {
	s.crashed.Store(true)
	s.beginDrain()
	s.runCancel()
	s.workerWG.Wait()
	if s.jrnl != nil {
		s.jrnl.Close()
	}
	s.httpSrv.Close()
}

// beginDrain flips the server to draining and closes the queue so workers
// exit once it is empty. Queued-but-never-run jobs are finished by the
// worker loop (or by Shutdown's cancel path); backlog jobs that never got
// a queue slot are cancelled here — still journaled, so a restart with a
// fresh queue re-runs them from their checkpoints.
func (s *Server) beginDrain() {
	s.queueMu.Lock()
	if s.state == lifeDraining {
		s.queueMu.Unlock()
		return
	}
	s.state = lifeDraining
	backlog := s.backlog
	s.backlog = nil
	close(s.queue)
	s.queueMu.Unlock()

	for _, j := range backlog {
		if j.finish(StatusQueued, StatusCancelled, errDraining) {
			s.met.jobFinished(StatusCancelled)
			s.journalFinish(j)
		}
	}
}

// enqueue admits a job or reports why not: errDraining during shutdown,
// errReplaying while the journal replay still owns the queue, errQueueFull
// when the bounded queue is at capacity.
var (
	errDraining  = errors.New("server is draining")
	errReplaying = errors.New("journal replay in progress")
	errQueueFull = errors.New("job queue is full")
)

func (s *Server) enqueue(j *job) error {
	s.queueMu.Lock()
	defer s.queueMu.Unlock()
	switch s.state {
	case lifeDraining:
		return errDraining
	case lifeReplaying:
		return errReplaying
	}
	if len(s.backlog) > 0 {
		// Replayed (already-acknowledged) jobs own every freed slot until
		// the backlog drains; new work is told to retry.
		return errQueueFull
	}
	select {
	case s.queue <- j:
		s.met.queueDelta(1)
		return nil
	default:
		return errQueueFull
	}
}

// admitBacklog moves replayed jobs from the backlog into the queue while
// slots are free. Workers call it each time they take a job (freeing a
// slot); enqueue keeps external submissions out until the backlog is empty,
// so the backlog always makes progress.
func (s *Server) admitBacklog() {
	s.queueMu.Lock()
	defer s.queueMu.Unlock()
	if s.state == lifeDraining {
		return // queue is closed; beginDrain already settled the backlog
	}
	for len(s.backlog) > 0 {
		select {
		case s.queue <- s.backlog[0]:
			s.met.queueDelta(1)
			s.backlog[0] = nil
			s.backlog = s.backlog[1:]
		default:
			return
		}
	}
}

// register tracks a new job record, evicting the oldest terminal record if
// the registry is full. With a non-empty idempotency key, a concurrent or
// earlier submission under the same key wins: register returns that job
// with existing=true and records nothing new — the check and the insert
// share one critical section so two racing same-key submissions can never
// both run.
func (s *Server) register(spec Spec, key string) (j *job, existing bool) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	if key != "" {
		if id, ok := s.keys[key]; ok {
			return s.jobs[id], true
		}
	}
	s.nextID++
	j = &job{
		id:      fmt.Sprintf("job-%d", s.nextID),
		spec:    spec,
		key:     key,
		created: time.Now(),
		status:  StatusQueued,
		buf:     newResultBuffer(s.cfg.MaxResultBytes),
		track:   s.jrnl != nil,
	}
	if len(s.order) >= s.cfg.MaxJobs {
		for i, id := range s.order {
			if st, _ := s.jobs[id].snapshot(); st.terminal() {
				if k := s.jobs[id].key; k != "" {
					delete(s.keys, k)
				}
				delete(s.jobs, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	if key != "" {
		s.keys[key] = j.id
	}
	return j, false
}

// unregister removes a job that never made it past admission (journal
// write failure), so a retry under the same idempotency key gets a clean
// slate instead of the dead record.
func (s *Server) unregister(j *job) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	if j.key != "" {
		delete(s.keys, j.key)
	}
	delete(s.jobs, j.id)
	for i, id := range s.order {
		if id == j.id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

// rejectUnjournaled backs out a job whose admission record could not be
// made durable. register published the key→job binding before the journal
// append ran, so another same-key submission may already be streaming this
// job: unregister first (a fresh retry gets a clean slate, not the dead
// record), then finish the job as failed — which emits the in-band error
// line and closes the result buffer, so any attacher unblocks with the
// failure instead of waiting forever on a job that will never be enqueued.
func (s *Server) rejectUnjournaled(j *job, cause error) {
	s.unregister(j)
	j.finish(StatusQueued, StatusFailed, fmt.Errorf("journal unavailable: %v", cause))
}

func (s *Server) lookup(id string) (*job, bool) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *Server) list() []Info {
	s.jobsMu.Lock()
	jobs := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.jobsMu.Unlock()
	infos := make([]Info, len(jobs))
	for i, j := range jobs {
		infos[i] = j.info()
	}
	return infos
}

// worker drains the queue until beginDrain closes it. Each take frees a
// queue slot, so it is also the moment a replay-backlog job can be
// admitted.
func (s *Server) worker() {
	defer s.workerWG.Done()
	for j := range s.queue {
		s.met.queueDelta(-1)
		s.admitBacklog()
		s.runJob(j)
	}
}

// runJob executes one job under its deadline and records the outcome.
func (s *Server) runJob(j *job) {
	timeout := s.cfg.JobTimeout
	if ms := j.spec.TimeoutMS; ms > 0 {
		if d := time.Duration(ms) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	ctx, cancel := context.WithTimeout(s.runCtx, timeout)
	defer cancel()
	if !j.markRunning(cancel) {
		// Cancelled while queued; requestCancel already finished it.
		return
	}
	s.journalState(j, StatusRunning, "")
	s.met.inflightDelta(1)
	err := s.dispatch(ctx, j.spec, runEnv{
		emit:            j.emit,
		ckpt:            s.checkpointer(ctx, j),
		checkpointEvery: s.cfg.CheckpointEvery,
	})
	s.met.inflightDelta(-1)

	var st Status
	switch {
	case err == nil:
		st = StatusDone
	case errors.Is(err, context.Canceled):
		st = StatusCancelled
		err = errors.New("job cancelled")
	case errors.Is(err, context.DeadlineExceeded):
		st = StatusFailed
		err = fmt.Errorf("job exceeded deadline %v", timeout)
	default:
		st = StatusFailed
	}
	j.finish(StatusRunning, st, err)
	s.journalFinish(j)
	s.met.jobFinished(st)
}

// dispatch runs a spec's job through its jobKinds block. env.emit funnels
// every result line to the job's destination; an emit error fails the
// job. A panicking runner is contained here: the job fails with the panic
// message in its result and the worker pool keeps serving.
func (s *Server) dispatch(ctx context.Context, spec Spec, env runEnv) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("job panicked: %v", r)
			s.met.panics.Inc()
		}
	}()
	if s.cfg.Chaos.Fire("job.panic") {
		panic("chaos: injected worker panic")
	}
	s.cfg.Chaos.Stall(ctx, "job.stall", s.cfg.JobTimeout)

	b, err := spec.kind()
	if err != nil {
		return err
	}
	return b.run(ctx, s, spec, env)
}

// WholeMS converts a command-line duration to the whole milliseconds a
// Spec carries, refusing a value it would have to truncate.
func WholeMS(flag string, d time.Duration) (int64, error) {
	if d%time.Millisecond != 0 {
		return 0, fmt.Errorf("-%s %v is not a whole number of milliseconds", flag, d)
	}
	return d.Milliseconds(), nil
}

// RunSpec runs one job outside the daemon, for the command-line faces of
// the job types. The spec is admitted as an async POST /v1/jobs would be
// under the default Config, and rejected with the same message; the job's
// NDJSON result lines are then written to w as they are emitted, the same
// bytes a POST would serve. The job runs under ctx, shortened by the
// spec's timeout_ms; on failure w holds the lines emitted before it, and
// the error is returned instead of an in-band error line.
func RunSpec(ctx context.Context, spec Spec, w io.Writer) error {
	s := newServer(Config{})
	defer s.runCancel()
	if err := spec.validate(s.cfg, true); err != nil {
		return fmt.Errorf("invalid job spec: %w", err)
	}
	if spec.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(spec.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	lines := 0
	return s.dispatch(ctx, spec, runEnv{emit: func(v any) error {
		line, err := encodeLine(v, func() int { return lines })
		if err != nil {
			return err
		}
		lines++
		_, err = w.Write(line)
		return err
	}})
}

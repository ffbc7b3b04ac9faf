package server

import (
	"context"
	"encoding/json"
	"os"
	"strconv"
	"strings"

	"repro/internal/chaos"
	"repro/internal/journal"
	"repro/internal/sim"
)

// openJournal opens (or creates) the configured journal directory, replays
// every durable record into the job registry, re-enqueues interrupted jobs
// from their last checkpoint, and flips the server to ready. Called once
// from New, before the worker pool starts.
func (s *Server) openJournal() error {
	opts := journal.Options{
		Logf:         s.logf,
		CompactEvery: s.cfg.CompactEvery,
		Live:         s.liveRecords,
		OnAppend: func(bytes int, err error) {
			if err != nil {
				s.met.journalAppendErrors.Inc()
				return
			}
			s.met.journalAppends.Inc()
			s.met.journalBytes.Add(int64(bytes))
		},
		OnCompact: func(kept, dropped int, err error) {
			if err != nil {
				return
			}
			s.met.journalCompactions.Inc()
			s.met.journalDropped.Add(int64(dropped))
		},
	}
	if c := s.cfg.Chaos; c != nil {
		opts.WrapFile = func(f *os.File) journal.File { return &chaos.File{F: f, C: c} }
	}
	jrnl, recs, err := journal.Open(s.cfg.JournalDir, opts)
	if err != nil {
		return err
	}
	s.jrnl = jrnl
	s.replayRecords(recs)
	s.setState(lifeReady)
	return nil
}

// replayRecords rebuilds the job registry from the journal: completed jobs
// come back with their buffered results intact; interrupted ones are
// re-enqueued with their journaled result prefix already in the buffer and
// an emit-skip so the deterministic re-run continues where durability
// stopped instead of double-emitting.
func (s *Server) replayRecords(recs []journal.Record) {
	s.jobsMu.Lock()
	for _, rec := range recs {
		switch rec.Kind {
		case journal.KindSubmit:
			if _, ok := s.jobs[rec.Job]; ok {
				// A compaction snapshot can race a submit whose append was
				// still in the committer queue: both land, so the same job
				// has two submit records. Keep the first; re-creating it
				// would duplicate the registry entry.
				continue
			}
			var spec Spec
			if err := json.Unmarshal(rec.Spec, &spec); err != nil {
				s.logf("simd: journal: dropping job %s with undecodable spec: %v", rec.Job, err)
				continue
			}
			j := &job{
				id:     rec.Job,
				spec:   spec,
				key:    rec.Key,
				status: StatusQueued,
				buf:    newResultBuffer(s.cfg.MaxResultBytes),
			}
			s.jobs[j.id] = j
			s.order = append(s.order, j.id)
			if rec.Key != "" {
				s.keys[rec.Key] = j.id
			}
			if n, err := strconv.Atoi(strings.TrimPrefix(rec.Job, "job-")); err == nil && n > s.nextID {
				s.nextID = n
			}
		case journal.KindChunk:
			j, ok := s.jobs[rec.Job]
			if !ok {
				continue
			}
			for _, line := range rec.Lines {
				if err := j.buf.append(append([]byte(line), '\n')); err != nil {
					j.status = StatusFailed
					j.err = "journal replay: " + err.Error()
					break
				}
				j.journaled++
			}
		case journal.KindState:
			j, ok := s.jobs[rec.Job]
			if !ok {
				continue
			}
			st := Status(rec.Status)
			if st == StatusRunning {
				// An interrupted run replays as queued; the re-enqueue
				// below resumes it from the last checkpoint.
				continue
			}
			j.status = st
			j.err = rec.Error
		}
	}
	// Snapshot in insertion order while still under the lock.
	var pending []*job
	for _, id := range s.order {
		j := s.jobs[id]
		if j.status.terminal() {
			j.buf.close()
			s.met.jobsReplayed.Inc()
			continue
		}
		j.status = StatusQueued
		j.skip = j.journaled
		j.track = true
		pending = append(pending, j)
	}
	s.jobsMu.Unlock()

	for _, j := range pending {
		s.met.jobsReplayed.Inc()
		if j.skip > 0 {
			s.met.jobsResumed.Inc()
		}
		s.enqueueReplayed(j)
	}
}

// enqueueReplayed admits a replayed job even though the server is still in
// the replaying state (external submissions are rejected until ready).
// These jobs are acknowledged, journaled work, so queue capacity can never
// fail them: overflow waits in the backlog and workers admit it as slots
// free up. Only a drain racing the replay cancels them.
func (s *Server) enqueueReplayed(j *job) {
	s.queueMu.Lock()
	if s.state == lifeDraining {
		s.queueMu.Unlock()
		if j.finish(StatusQueued, StatusCancelled, errDraining) {
			s.met.jobFinished(StatusCancelled)
			s.journalFinish(j)
		}
		return
	}
	defer s.queueMu.Unlock()
	select {
	case s.queue <- j:
		s.met.queueDelta(1)
	default:
		s.backlog = append(s.backlog, j)
	}
}

// liveRecords snapshots every retained job as the compact form of its
// journal history: submit, durable result lines, and current state. The
// compaction timer feeds this to journal.Compact, which drops the records
// of evicted jobs.
func (s *Server) liveRecords() []journal.Record {
	s.jobsMu.Lock()
	jobs := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.jobsMu.Unlock()

	var recs []journal.Record
	for _, j := range jobs {
		specJSON, err := json.Marshal(j.spec)
		if err != nil {
			continue
		}
		j.mu.Lock()
		st, errMsg, durable := j.status, j.err, j.journaled
		j.mu.Unlock()
		recs = append(recs, journal.Record{
			Kind: journal.KindSubmit, Job: j.id, Key: j.key, Spec: specJSON,
		})
		if durable > 0 {
			lines := make([]string, 0, durable)
			for i := 0; i < durable; i++ {
				line := j.buf.line(i)
				lines = append(lines, string(line[:len(line)-1]))
			}
			recs = append(recs, journal.Record{Kind: journal.KindChunk, Job: j.id, Lines: lines})
		}
		if st != StatusQueued {
			recs = append(recs, journal.Record{
				Kind: journal.KindState, Job: j.id, Status: string(st), Error: errMsg,
			})
		}
	}
	return recs
}

// journalSubmit makes a job's admission durable. It must succeed before the
// job is enqueued: a client that saw the job accepted must find it again
// after a crash, and an idempotency key must dedupe across restarts.
func (s *Server) journalSubmit(j *job) error {
	if s.jrnl == nil || s.crashed.Load() {
		return nil
	}
	specJSON, err := json.Marshal(j.spec)
	if err != nil {
		return err
	}
	return s.jrnl.Append(journal.Record{
		Kind: journal.KindSubmit, Job: j.id, Key: j.key, Spec: specJSON,
	})
}

// journalState records a lifecycle transition. Failures are logged, not
// fatal: a lost transition replays the job as interrupted, and the
// deterministic re-run reproduces the identical result.
func (s *Server) journalState(j *job, st Status, errMsg string) {
	if s.jrnl == nil || s.crashed.Load() {
		return
	}
	err := s.jrnl.Append(journal.Record{
		Kind: journal.KindState, Job: j.id, Status: string(st), Error: errMsg,
	})
	if err != nil {
		s.logf("simd: journal: state %s for %s not recorded: %v", st, j.id, err)
	}
}

// journalCheckpoint flushes the job's emitted-but-not-durable result lines
// as one chunk record. On failure the lines are put back so the next
// checkpoint (or completion) retries them.
func (s *Server) journalCheckpoint(j *job) {
	if s.jrnl == nil || s.crashed.Load() {
		return
	}
	j.ckptMu.Lock()
	defer j.ckptMu.Unlock()
	lines := j.takePending()
	if len(lines) == 0 {
		return
	}
	if err := s.jrnl.Append(journal.Record{Kind: journal.KindChunk, Job: j.id, Lines: lines}); err != nil {
		j.restorePending(lines)
		s.logf("simd: journal: checkpoint for %s deferred: %v", j.id, err)
		return
	}
	j.confirmJournaled(len(lines))
}

// journalFinish flushes any remaining result lines (including the in-band
// error line of a failed or cancelled job) and records the terminal state.
func (s *Server) journalFinish(j *job) {
	if s.jrnl == nil || s.crashed.Load() {
		return
	}
	s.journalCheckpoint(j)
	st, errMsg := j.snapshot()
	s.journalState(j, st, errMsg)
}

// checkpointer returns the sim.Checkpointer handed to this job's runner,
// or nil when the server runs without a journal. After each checkpoint is
// durable the job consults chaos op "job.checkpoint": armed, it parks there
// until ctx ends, which is how crash tests land a kill at a known point
// with a known prefix on disk.
func (s *Server) checkpointer(ctx context.Context, j *job) sim.Checkpointer {
	if s.jrnl == nil {
		return nil
	}
	return sim.CheckpointFunc(func(int64) {
		s.journalCheckpoint(j)
		s.cfg.Chaos.Stall(ctx, "job.checkpoint", s.cfg.JobTimeout)
	})
}

package server

import (
	"context"
	"errors"
	"time"

	"repro/internal/surrogate"
)

// surrogateFoldLine is one cross-validation fold, kind "fold".
type surrogateFoldLine struct {
	Kind string `json:"kind"`
	surrogate.FoldReport
}

// surrogateTrainSummary closes a training stream, kind "summary". The
// checksum is the artifact fingerprint — the byte-determinism contract
// makes it a pure function of the training spec.
type surrogateTrainSummary struct {
	Kind          string                   `json:"kind"`
	Cells         int                      `json:"cells"`
	ArtifactBytes int                      `json:"artifact_bytes"`
	Checksum      string                   `json:"checksum"`
	MaxRelErr     float64                  `json:"max_rel_err"`
	Channels      []surrogate.ChannelError `json:"channels"`
}

// surrogateAnswerLine is one answered query, kind "answer". Source is
// "surrogate" for the interpolation fast path and "exact" for fallbacks —
// and an exact-sourced line is byte-identical whether it came from a
// transparent fallback or a forced exact job, which is how the
// verification suite proves the fallback path honest.
type surrogateAnswerLine struct {
	Kind  string `json:"kind"`
	Index int    `json:"index"`
	surrogate.Query
	surrogate.Answer
	Source string `json:"source"`
}

// surrogateQuerySummary closes a query stream, kind "summary".
type surrogateQuerySummary struct {
	Kind      string `json:"kind"`
	Queries   int    `json:"queries"`
	Hits      int    `json:"hits"`
	Fallbacks int    `json:"fallbacks"`
}

// run routes a surrogate job by mode, which validate has checked.
func (sp *SurrogateSpec) run(ctx context.Context, s *Server, spec Spec, env runEnv) error {
	if sp.Mode == "train" {
		return s.trainSurrogate(ctx, sp, spec.workers(), env)
	}
	return s.querySurrogate(ctx, sp, env)
}

// trainSurrogate samples the grid (streaming one line per cell, with
// checkpoint marks on the fixed training windows), emits the
// cross-validation folds and the artifact summary, and installs the model
// as the server's serving model.
func (s *Server) trainSurrogate(ctx context.Context, sp *SurrogateSpec, workers int, env runEnv) error {
	t := sp.Train
	if t == nil {
		t = &SurrogateTrainSpec{}
	}
	cells := 0
	m, err := surrogate.Train(ctx, t.config(workers), func(c surrogate.Cell) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := env.emit(c); err != nil {
			return err
		}
		cells++
		if cells%16 == 0 {
			env.checkpoint(int64(cells))
		}
		return nil
	})
	if err != nil {
		return err
	}
	blob, err := surrogate.Encode(m)
	if err != nil {
		return err
	}
	sum, err := surrogate.Sum(blob)
	if err != nil {
		return err
	}
	for _, f := range m.CV.Folds {
		if err := env.emit(surrogateFoldLine{Kind: "fold", FoldReport: f}); err != nil {
			return err
		}
	}
	if err := env.emit(surrogateTrainSummary{
		Kind:          "summary",
		Cells:         m.Cells(),
		ArtifactBytes: len(blob),
		Checksum:      sum,
		MaxRelErr:     m.CV.MaxRel(),
		Channels:      m.CV.Overall,
	}); err != nil {
		return err
	}
	s.installSurrogate(m)
	s.surMet.Trainings.Inc()
	return nil
}

// querySurrogate answers the batch: the installed model where it is
// trusted and covers the query, the exact engine otherwise. Fallbacks and
// hits are counted both in /metrics and in the closing summary line.
func (s *Server) querySurrogate(ctx context.Context, sp *SurrogateSpec, env runEnv) error {
	model, exact := s.surrogateState()
	var hits, fallbacks int
	for i, q := range sp.Queries {
		if err := ctx.Err(); err != nil {
			return err
		}
		ans, source, err := s.answerSurrogate(model, exact, sp, q)
		if err != nil {
			return err
		}
		if source == "surrogate" {
			hits++
		} else {
			fallbacks++
		}
		if err := env.emit(surrogateAnswerLine{
			Kind: "answer", Index: i, Query: q, Answer: ans, Source: source,
		}); err != nil {
			return err
		}
		if (i+1)%256 == 0 {
			env.checkpoint(int64(i + 1))
		}
	}
	return env.emit(surrogateQuerySummary{
		Kind: "summary", Queries: len(sp.Queries), Hits: hits, Fallbacks: fallbacks,
	})
}

// answerSurrogate resolves one query, instrumenting the decision: forced
// exact, no model installed, model above the error bound, and out-of-hull
// queries all fall back to the exact engine.
func (s *Server) answerSurrogate(model *surrogate.Model, exact *surrogate.Exact, sp *SurrogateSpec, q surrogate.Query) (surrogate.Answer, string, error) {
	start := time.Now()
	s.surMet.Queries.Inc()
	defer func() {
		s.surMet.QueryLatencyUS.Observe(float64(time.Since(start)) / float64(time.Microsecond))
	}()

	switch {
	case sp.Exact:
		s.surMet.FallbackForced.Inc()
	case model == nil:
		s.surMet.FallbackNoModel.Inc()
	case sp.MaxRelErr > 0 && model.CV.MaxRel() > sp.MaxRelErr:
		s.surMet.FallbackErrBound.Inc()
	default:
		ans, err := model.Eval(q)
		if err == nil {
			s.surMet.Hits.Inc()
			return ans, "surrogate", nil
		}
		if !errors.Is(err, surrogate.ErrOutOfHull) {
			return surrogate.Answer{}, "", err
		}
		s.surMet.FallbackOutOfHull.Inc()
	}
	s.surMet.Fallbacks.Inc()
	ans, err := exact.Solve(q)
	return ans, "exact", err
}

// installSurrogate swaps in a newly trained (or boot-loaded) model plus a
// fallback engine matching its exact-engine configuration, so fallback
// answers stay on the same footing the model was trained on.
func (s *Server) installSurrogate(m *surrogate.Model) {
	exact, err := surrogate.NewExact(m.ExactConfig())
	if err != nil {
		// A validated model always carries a valid exact config; keep the
		// previous engine rather than serving without one.
		return
	}
	s.surMu.Lock()
	s.surModel = m
	s.surExact = exact
	s.surMu.Unlock()
}

// surrogateState snapshots the serving model and fallback engine.
func (s *Server) surrogateState() (*surrogate.Model, *surrogate.Exact) {
	s.surMu.RLock()
	defer s.surMu.RUnlock()
	return s.surModel, s.surExact
}

package server

import (
	"context"

	"repro/internal/tournament"
)

// tournamentCellLine is one finished (policy, workload, regime) cell, kind
// "cell". The embedded row carries only spec-determined values, so the
// stream stays byte-identical across worker counts and resumes.
type tournamentCellLine struct {
	Kind string `json:"kind"`
	tournament.Cell
}

// tournamentSummaryLine closes a tournament stream with the bracket-wide
// reduction, kind "summary".
type tournamentSummaryLine struct {
	Kind string `json:"kind"`
	tournament.Summary
}

// run executes a tournament job: one "cell" line per result in
// enumeration order, then the "summary". Cell boundaries are the
// deterministic checkpoint positions — a resumed run re-simulates from the
// start and verify-skips the cells already journaled, re-finding exactly the
// same boundaries because the merge order is enumeration order at every
// worker count.
func (t *TournamentSpec) run(ctx context.Context, s *Server, spec Spec, env runEnv) error {
	cells := 0
	sum, err := tournament.Run(ctx, t.config(spec.workers(), s.reg), func(c tournament.Cell) error {
		if err := env.emit(tournamentCellLine{Kind: "cell", Cell: c}); err != nil {
			return err
		}
		cells++
		env.checkpoint(int64(cells))
		return nil
	})
	if err != nil {
		return err
	}
	return env.emit(tournamentSummaryLine{Kind: "summary", Summary: sum})
}

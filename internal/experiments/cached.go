package experiments

import (
	"context"
	"sync"

	"ntdts/internal/core"
)

// Shared memoizes the heavyweight paper campaigns once per process.
// Campaigns are deterministic — the same configuration always yields the
// same data — so tests and benchmarks that each need the full Figure 2 or
// Figure 5 experiment can share one execution instead of re-running the
// ~10k-simulation sweep per caller.
type Shared struct {
	cfg Config

	fig2Once sync.Once
	fig2     *core.Experiment
	fig2Err  error

	fig5Once sync.Once
	fig5     *Figure5Result
	fig5Err  error
}

var (
	sharedOnce sync.Once
	shared     *Shared
)

// Cached returns the process-wide memoized campaign runner. The first
// caller's cfg is captured for all subsequent campaigns; because results
// are deterministic and independent of Parallelism, later callers with a
// different cfg observe identical data.
func Cached(cfg Config) *Shared {
	sharedOnce.Do(func() { shared = &Shared{cfg: cfg} })
	return shared
}

// Figure2 runs (or returns the memoized) full Figure 2 experiment.
func (s *Shared) Figure2() (*core.Experiment, error) {
	s.fig2Once.Do(func() { s.fig2, s.fig2Err = RunFigure2(context.Background(), s.cfg) })
	return s.fig2, s.fig2Err
}

// Figure5 runs (or returns the memoized) watchd-evolution sweep.
func (s *Shared) Figure5() (*Figure5Result, error) {
	s.fig5Once.Do(func() { s.fig5, s.fig5Err = RunFigure5(context.Background(), s.cfg) })
	return s.fig5, s.fig5Err
}

package telemetry

// Trace introspection: read-side helpers that summarize what a recorded
// run's telemetry says about middleware activity, without restoring a
// live Recorder. The replay divergence oracle (internal/replay) reads
// Touchpoints off journaled snapshots, with DecodeTouchpoints, to decide
// whether a substrate swap could have changed a run's outcome.

// Touchpoints holds the counters that show the middleware or the
// supervisor acting on a run. All zero means the trace shows neither
// ever had to act.
type Touchpoints struct {
	Restarts    int64 // middleware-initiated service restarts
	Retries     int64 // supervisor retry attempts
	Quarantines int64 // supervisor quarantine decisions
}

// Touchpoints summarizes the snapshot's middleware-visible counters.
func (s *Snapshot) Touchpoints() Touchpoints {
	c := s.Counters
	return Touchpoints{
		Restarts:    c[CtrRunRestarts],
		Retries:     c[CtrSupRetry],
		Quarantines: c[CtrSupQuarantine],
	}
}

// set records counter name's value when it is a touchpoint counter.
func (t *Touchpoints) set(name []byte, v int64) {
	switch string(name) {
	case CtrRunRestarts:
		t.Restarts = v
	case CtrSupRetry:
		t.Retries = v
	case CtrSupQuarantine:
		t.Quarantines = v
	}
}

// Quiet reports whether the trace proves the middleware never acted on
// this run: no restarts, no supervisor retries, no quarantine.
func (t Touchpoints) Quiet() bool {
	return t.Restarts == 0 && t.Retries == 0 && t.Quarantines == 0
}

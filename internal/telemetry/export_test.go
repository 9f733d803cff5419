package telemetry

// KeepsEvents reports whether r holds its events as snapshot bytes. It
// exposes the fast path to the campaign test in package telemetry_test,
// which imports core and so cannot live in this package.
func KeepsEvents(r *Recorder) bool { return r.enc != nil }

package telemetry

// DecodeCanonical, CanonicalTouchpoints and KeepsEvents expose the
// snapshot fast paths to the campaign test in package telemetry_test,
// which imports core and so cannot live in this package.
func DecodeCanonical(data []byte, s *Snapshot) bool { return canonicalSnapshot(data, s) }

func CanonicalTouchpoints(data []byte) (t Touchpoints, ok bool) {
	_, ok = decodeCanonical(data, &Snapshot{}, &t, nil)
	return t, ok
}

// KeepsEvents reports whether r holds its events as snapshot bytes.
func KeepsEvents(r *Recorder) bool { return r.enc != nil }

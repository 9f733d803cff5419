package telemetry

// DecodeCanonical and CanonicalTouchpoints expose the snapshot fast path
// to the campaign test in package telemetry_test, which imports core and
// so cannot live in this package.
func DecodeCanonical(data []byte, s *Snapshot) bool { return decodeCanonical(data, s, nil) }

func CanonicalTouchpoints(data []byte) (t Touchpoints, ok bool) {
	ok = decodeCanonical(data, nil, &t)
	return t, ok
}

package telemetry

// DecodeCanonical exposes the snapshot fast path to the campaign test
// in package telemetry_test, which imports core and so cannot live in
// this package.
var DecodeCanonical = decodeCanonical

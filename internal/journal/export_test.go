package journal

// DecodeRunLine exposes the run-line fast path to the campaign test in
// package journal_test, which imports core and so cannot live in this
// package.
var DecodeRunLine = decodeRunLine

package main

// The counterfactual replay mode: re-execute a journaled campaign under
// an alternative middleware substrate (DESIGN.md §4k). The divergence
// oracle elides every run whose recorded evidence proves the substrate
// swap cannot change the outcome; the archive is byte-identical to a
// from-scratch campaign under the target.

import (
	"context"
	"fmt"
	"io"

	"ntdts/internal/core"
	"ntdts/internal/middleware"
	"ntdts/internal/replay"
)

func runReplay(ctx context.Context, journalPath, target, outPath string, parallel int, noElide bool, cc core.ClusterConfig, progress func(string), out io.Writer) error {
	if target == "" {
		return fmt.Errorf("-replay needs -middleware naming the target substrate (none, watchd-v1, watchd-v2, watchd-v3 or mscs)")
	}
	spec, err := middleware.Parse(target)
	if err != nil {
		return err
	}
	src, err := replay.Load(journalPath)
	if err != nil {
		return err
	}
	srcSpec, err := src.SourceSpec()
	if err != nil {
		return err
	}
	opts := replay.Options{
		Target:      spec,
		Parallelism: parallel,
		NoElide:     noElide,
		Progress:    campaignProgress(progress),
	}
	if cc != (core.ClusterConfig{}) {
		opts.Cluster = &cc
	}
	c, oracle, err := replay.Build(src, opts)
	if err != nil {
		return err
	}
	progress(fmt.Sprintf("replaying %s: %s -> %s (%d recorded runs)",
		journalPath, srcSpec, spec, len(src.Runs)))
	set, err := c.Run(ctx)
	if err != nil {
		return err
	}
	printSetSummary(set, out)
	st := oracle.Stats()
	// One machine-parseable line for CI gates and scripts.
	fmt.Fprintf(out, "\nreplay: source=%s target=%s total=%d elided=%d fault-free=%d copied=%d executed=%d elision-rate=%.3f\n",
		srcSpec, spec, st.Total, st.Elided, st.FaultFree, st.Copied, st.Executed, st.Rate())
	return saveSet(set, outPath)
}

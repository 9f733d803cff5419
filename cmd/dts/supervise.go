package main

// Campaign supervision in the CLI: -resume (in-process or on a -workers
// fleet), the one finish path that flushes the journal and prints the
// exact resume command on SIGINT/SIGTERM, and the distinct exit codes
// automation keys on. Every campaign runs under the attempt policy its
// journal header carries (-run-deadline/-max-quarantined/-retries/-chaos,
// read by shard.PolicyFromHeader).

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"

	"ntdts/internal/core"
	"ntdts/internal/journal"
	"ntdts/internal/shard"
)

// Exit codes beyond the generic 1: automation around long campaigns
// distinguishes "interrupted, resume me" from "degraded past the
// quarantine budget, inspect me".
const (
	exitInterrupted      = 3
	exitQuarantineBudget = 4
	// exitDegraded: a -workers fleet campaign completed — results are
	// full and byte-identical — but only by falling back to in-process
	// execution after every worker budget was exhausted.
	exitDegraded = 5
)

// exitError carries a specific process exit code out of run().
type exitError struct {
	code int
	msg  string
}

func (e *exitError) Error() string { return e.msg }

// resumeCommand renders the exact command that continues an interrupted
// campaign — printed on interrupt so the operator can paste it. A fleet
// campaign resumes on the same -workers fleet; a -worker-key is never
// printed.
func resumeCommand(jpath, outPath string, parallel int, workers string, tflags telemetryFlags) string {
	var b strings.Builder
	b.WriteString("dts -resume ")
	b.WriteString(jpath)
	if parallel != 0 {
		fmt.Fprintf(&b, " -parallel %d", parallel)
	}
	if workers != "" {
		b.WriteString(" -workers ")
		b.WriteString(workers)
	}
	if outPath != "" {
		b.WriteString(" -out ")
		b.WriteString(outPath)
	}
	if tflags.traceOut != "" {
		b.WriteString(" -trace-out ")
		b.WriteString(tflags.traceOut)
	}
	if tflags.metrics {
		b.WriteString(" -metrics")
	}
	return b.String()
}

// finish is the single exit path of every -config, -resume and -replay
// campaign, whether it ran locally or on a fleet: flush and close the
// journal, map stop causes to their exit codes, render the summary and
// quarantine report, emit telemetry, and save the archive — the partial
// one too when the quarantine budget stopped the campaign.
func finish(set *core.SetResult, runErr error, jw *journal.Writer, savePath, resumeHint string, tflags telemetryFlags, out io.Writer) error {
	if jw != nil {
		defer jw.Close()
		if err := jw.Sync(); err != nil && runErr == nil {
			return err
		}
	}
	var budget *core.QuarantineBudgetError
	switch {
	case errors.Is(runErr, core.ErrInterrupted):
		if jw != nil {
			fmt.Fprintf(out, "\ninterrupted: %d runs journaled to %s\nresume with:\n  %s\n",
				jw.Records(), jw.Path(), resumeHint)
		} else {
			fmt.Fprintf(out, "\ninterrupted (no -journal: progress lost)\n")
		}
		return &exitError{code: exitInterrupted, msg: "campaign interrupted"}
	case runErr != nil && !errors.As(runErr, &budget):
		return runErr
	}
	printSetSummary(set, out)
	if err := tflags.emit(set.Telemetry, out); err != nil {
		return err
	}
	if err := saveSet(set, savePath); err != nil {
		return err
	}
	if budget != nil {
		fmt.Fprintf(out, "\npartial results: campaign stopped, %s\n", runErr)
		return &exitError{code: exitQuarantineBudget, msg: runErr.Error()}
	}
	// A degraded completion exits with its own code: the results are
	// complete, but the fleet did not survive as a fleet.
	return fleetExit(set.Dispatch)
}

// runResume continues an interrupted journaled campaign: replay the
// journal, truncate its torn tail, rebuild the runner and the attempt
// policy from the header, adopt the journaled runs and execute the rest
// under that policy, in-process or on a -workers fleet, so the final
// results are byte-identical to an uninterrupted campaign at any
// -parallel or -workers setting.
func runResume(ctx context.Context, jpath, outPath string, parallel int, fleet *shard.FleetOptions, workers string, tflags telemetryFlags, progress func(string), out io.Writer) error {
	rep, err := journal.Replay(jpath)
	if err != nil {
		return err
	}
	h := rep.Header
	if h.Telemetry != tflags.options().Enabled {
		if h.Telemetry {
			return fmt.Errorf("journal %s collected telemetry; resume with -trace-out and/or -metrics", jpath)
		}
		return fmt.Errorf("journal %s collected no telemetry; -trace-out/-metrics cannot be added on resume", jpath)
	}
	runner, err := shard.RunnerFromHeader(h)
	if err != nil {
		return err
	}
	if rep.Torn {
		progress("discarded torn final journal record")
	}
	progress(fmt.Sprintf("resuming %s/%s from %s: %d runs journaled",
		h.Workload, h.Supervision, jpath, rep.Records))
	return runCampaign(ctx, runner, h, rep, jpath, outPath, parallel, fleet, workers, tflags, progress, out)
}

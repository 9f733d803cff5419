package main

// Campaign supervision in the CLI: the supervisor policy a journal
// header carries (-run-deadline/-max-quarantined/-retries/-chaos), -resume,
// the one finish path that flushes the journal and prints the exact
// resume command on SIGINT/SIGTERM, and the distinct exit codes
// automation keys on.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"ntdts/internal/core"
	"ntdts/internal/inject"
	"ntdts/internal/journal"
	"ntdts/internal/report"
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

// supervisorPolicy reads the supervisor policy a journal header
// records: the flags put it there for a fresh campaign, and the journal
// keeps it for a resumed one.
func supervisorPolicy(h journal.Header) core.SupervisorOptions {
	return core.SupervisorOptions{
		WallDeadline:   time.Duration(h.WallDeadlineNS),
		MaxAttempts:    h.MaxAttempts,
		MaxQuarantined: h.MaxQuarantined,
		Chaos:          h.Chaos,
	}
}

// supervised reports whether a fresh campaign's policy needs the
// supervisor (a -journal always does). The retry budget alone does not:
// retries only matter once a watchdog, quarantine budget or chaos hook
// is in play.
func supervised(h journal.Header) bool {
	return h.WallDeadlineNS > 0 || h.MaxQuarantined > 0 || h.Chaos
}

// resumeCommand renders the exact command that continues an interrupted
// campaign — printed on interrupt so the operator can paste it.
func resumeCommand(jpath, outPath string, parallel int, tflags telemetryFlags) string {
	var b strings.Builder
	b.WriteString("dts -resume ")
	b.WriteString(jpath)
	if parallel != 0 {
		fmt.Fprintf(&b, " -parallel %d", parallel)
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

// finish is the single exit path of every -config and -resume campaign,
// whether it ran locally, under the supervisor or on a fleet: flush and
// close the journal, map stop causes to their exit codes, render the
// summary and quarantine report, emit telemetry, and save the archive.
func finish(set *core.SetResult, runErr error, jw *journal.Writer, savePath, resumeHint string, tflags telemetryFlags, out io.Writer) error {
	if jw != nil {
		defer jw.Close()
		if err := jw.Sync(); err != nil && runErr == nil {
			return err
		}
	}
	if runErr != nil {
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
		case errors.As(runErr, &budget):
			if set != nil {
				printSetSummary(set, out)
				fmt.Fprint(out, "\n", report.Quarantine(set.Quarantined))
				if err := tflags.emit(set.Telemetry, out); err != nil {
					return err
				}
				if err := saveSet(set, savePath); err != nil {
					return err
				}
				fmt.Fprintf(out, "\npartial results: campaign stopped, %s\n", runErr)
			}
			return &exitError{code: exitQuarantineBudget, msg: runErr.Error()}
		default:
			return runErr
		}
	}
	printSetSummary(set, out)
	if len(set.Quarantined) != 0 {
		fmt.Fprint(out, "\n", report.Quarantine(set.Quarantined))
	}
	printFleetSummary(set.Dispatch, out)
	if err := tflags.emit(set.Telemetry, out); err != nil {
		return err
	}
	if err := saveSet(set, savePath); err != nil {
		return err
	}
	// A degraded completion exits with its own code: the results are
	// complete, but the fleet did not survive as a fleet.
	return fleetExit(set.Dispatch)
}

// runResume continues an interrupted journaled campaign: replay the
// journal, truncate its torn tail, rebuild the runner and the supervisor
// policy from the header, and execute the remaining runs — completed
// runs replay from the journal, so the final results are byte-identical
// to an uninterrupted campaign at any -parallel setting. The journal is
// self-contained: a fault-list campaign's specs come from its plan.
func runResume(ctx context.Context, jpath, outPath string, parallel int, tflags telemetryFlags, progress func(string), out io.Writer) error {
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
	sup := core.NewSupervisor(supervisorPolicy(h))
	sup.LoadResume(rep)
	copts := []core.Option{core.WithParallelism(parallel), core.WithProgress(campaignProgress(progress)),
		core.WithSupervision(sup)}
	if h.FaultList != "" {
		if rep.Plan == nil {
			return fmt.Errorf("journal %s has no plan record; nothing to resume — rerun the campaign", jpath)
		}
		specs := make([]inject.FaultSpec, len(rep.Plan.Jobs))
		for i, key := range rep.Plan.Jobs {
			job, err := core.ParseJobKey(key)
			if err != nil {
				return fmt.Errorf("journal plan job %d: %w", i, err)
			}
			specs[i] = job.Spec
		}
		copts = append(copts, core.WithSpecs(specs))
	}
	if rep.Torn {
		progress("discarded torn final journal record")
	}
	jw, err := journal.Append(jpath, rep.ValidBytes, rep.Records)
	if err != nil {
		return err
	}
	sup.AttachJournal(jw)
	progress(fmt.Sprintf("resuming %s/%s from %s: %d runs journaled",
		h.Workload, h.Supervision, jpath, rep.Records))
	set, err := core.NewCampaign(runner, copts...).Run(ctx)
	return finish(set, err, jw, outPath, resumeCommand(jpath, outPath, parallel, tflags), tflags, out)
}

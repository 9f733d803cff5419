// Command dtsreport renders a DTS results archive as the paper's tables
// and figures.
//
// Usage:
//
//	dtsreport -in results.json [-artifact auto|table1|figure2|figure3|table2|figure4|figure5|failures]
//	dtsreport -trace trace.jsonl
//	dtsreport -journal campaign.journal
//	dtsreport -diff a.json b.json
//	dtsreport -fitness -in results.json [-weights avail=1,recovery=0.25,quarantine=1]
//	dtsreport -anomalies -in results.json [-mad 5]
//
// The default artifact ("auto") renders whatever the archive holds; the
// derived artifacts (figure3, table2, figure4) require a figure2 archive.
// With -trace, dtsreport ingests a telemetry trace exported by
// dts -trace-out and prints a summary: events by kind, the busiest API
// functions, fault lifecycle counts and the virtual-time span. With
// -journal, dtsreport replays a campaign journal and summarizes its
// progress — including whether the tail is torn and how to resume.
//
// -diff compares two single-set archives fault by fault over their
// common injected faults and renders the failure-matrix delta, including
// any success/failure outcome flips. -fitness scores each set in an
// archive as one weighted scalar; -anomalies flags injected runs whose
// recovery time falls outside k median absolute deviations.
//
// All loading goes through internal/analysis — dtsreport holds no
// artifact parsers of its own. Unreadable or corrupt inputs exit 2 with
// a one-line diagnosis, so automation can tell "bad input file" from
// "bad invocation" (1).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"ntdts/internal/analysis"
	"ntdts/internal/avail"
	"ntdts/internal/core"
	"ntdts/internal/experiments"
	"ntdts/internal/report"
)

// exitCorruptInput distinguishes a bad input file from a bad invocation.
const exitCorruptInput = 2

// corruptInput marks an input file that could not be read or parsed.
type corruptInput struct{ err error }

func (e *corruptInput) Error() string { return e.err.Error() }
func (e *corruptInput) Unwrap() error { return e.err }

// classify wraps the analysis layer's corruption marker in the exit-code
// carrier; other errors pass through.
func classify(err error) error {
	if err != nil && errors.Is(err, analysis.ErrCorrupt) {
		return &corruptInput{err}
	}
	return err
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dtsreport:", err)
		var ci *corruptInput
		if errors.As(err, &ci) {
			os.Exit(exitCorruptInput)
		}
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dtsreport", flag.ContinueOnError)
	inPath := fs.String("in", "", "results archive to render")
	artifact := fs.String("artifact", "auto", "artifact to render")
	tracePath := fs.String("trace", "", "telemetry trace (JSONL from dts -trace-out) to summarize")
	journalPath := fs.String("journal", "", "campaign journal (from dts -journal) to summarize")
	diffMode := fs.Bool("diff", false, "diff two single-set archives (paths as positional args)")
	fitnessMode := fs.Bool("fitness", false, "score each set in -in as one weighted scalar")
	weightsSpec := fs.String("weights", "", "fitness weights, e.g. avail=1,recovery=0.25,quarantine=1")
	anomalyMode := fs.Bool("anomalies", false, "flag recovery-time outliers in -in")
	madK := fs.Float64("mad", 5, "outlier threshold in median absolute deviations")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *diffMode {
		if fs.NArg() != 2 {
			return fmt.Errorf("-diff needs exactly two archive paths")
		}
		return diffArchives(fs.Arg(0), fs.Arg(1), os.Stdout)
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (every flag after it would be ignored; only -diff takes paths)", fs.Arg(0))
	}
	if *tracePath != "" {
		return summarizeTrace(*tracePath, os.Stdout)
	}
	if *journalPath != "" {
		return summarizeJournal(*journalPath, os.Stdout)
	}
	if *inPath == "" {
		return fmt.Errorf("one of -in, -trace, -journal or -diff is required")
	}
	q, err := analysis.OpenArchive(*inPath)
	if err != nil {
		return classify(err)
	}
	if *fitnessMode {
		return renderFitness(q, *weightsSpec, os.Stdout)
	}
	if *anomalyMode {
		return renderAnomalies(q, *madK, os.Stdout)
	}
	archive := q.Archive

	name := *artifact
	if name == "auto" {
		name = archive.Kind
	}
	switch name {
	case "table1":
		if archive.Table1 == nil {
			return fmt.Errorf("archive holds %q, not table1 data", archive.Kind)
		}
		fmt.Print(report.Table1(archive.Table1))
	case "set":
		set, err := q.Set()
		if err != nil {
			return err
		}
		d := set.Distribution()
		fmt.Printf("%s/%s: %d injected faults, %.1f%% failures\n",
			set.Workload, set.Supervision, d.Total, set.FailurePct())
		if set.Partial {
			fmt.Printf("PARTIAL results: the campaign was stopped before completing its plan\n")
		}
		fmt.Print(report.TopFailures(set, 50))
		if perClass := report.PerClass(set, avail.EstimateClasses(set, avail.DefaultAssumptions())); perClass != "" {
			fmt.Print("\n", perClass)
		}
		if clusterView := report.Cluster(set); clusterView != "" {
			fmt.Print("\n", clusterView)
		}
		if len(set.Quarantined) != 0 {
			fmt.Print("\n", report.Quarantine(set.Quarantined))
		}
	case "figure2":
		if archive.Experiment == nil {
			return fmt.Errorf("archive holds %q, not figure2 data", archive.Kind)
		}
		fmt.Print(report.Figure2(archive.Experiment))
		fmt.Print("\n", report.FailureMatrix(archive.Experiment))
	case "figure3":
		rows, err := needFigure2(archive, experiments.Figure3)
		if err != nil {
			return err
		}
		fmt.Print(report.Figure3(rows))
	case "table2":
		rows, err := needFigure2(archive, experiments.Table2)
		if err != nil {
			return err
		}
		fmt.Print(report.Table2(rows))
	case "figure4":
		cells, err := needFigure2(archive, experiments.Figure4)
		if err != nil {
			return err
		}
		fmt.Print(report.Figure4(cells))
	case "figure5":
		if archive.Figure5 == nil {
			return fmt.Errorf("archive holds %q, not figure5 data", archive.Kind)
		}
		fmt.Print(report.Figure5(archive.Figure5))
	case "availability":
		if archive.Experiment == nil {
			return fmt.Errorf("artifact availability needs a figure2 archive")
		}
		ests, err := experiments.Availability(archive.Experiment, avail.DefaultAssumptions())
		if err != nil {
			return err
		}
		fmt.Print(report.Availability(ests))
	case "failures":
		if archive.Experiment == nil {
			return fmt.Errorf("artifact failures needs a figure2 archive")
		}
		for _, set := range archive.Experiment.Sets {
			fmt.Print(report.TopFailures(set, 10), "\n")
		}
	default:
		return fmt.Errorf("unknown artifact %q", name)
	}
	return nil
}

// diffArchives loads two single-set archives and renders their
// failure-matrix delta.
func diffArchives(pathA, pathB string, out io.Writer) error {
	qa, err := analysis.OpenArchive(pathA)
	if err != nil {
		return classify(err)
	}
	qb, err := analysis.OpenArchive(pathB)
	if err != nil {
		return classify(err)
	}
	a, err := qa.Set()
	if err != nil {
		return err
	}
	b, err := qb.Set()
	if err != nil {
		return err
	}
	fmt.Fprint(out, report.Delta(analysis.Diff(a, b)))
	return nil
}

// renderFitness scores every set the archive holds.
func renderFitness(q *analysis.Query, spec string, out io.Writer) error {
	w, err := analysis.ParseWeights(spec)
	if err != nil {
		return err
	}
	sets := q.Sets()
	if len(sets) == 0 {
		return fmt.Errorf("archive holds %q, which has no workload sets to score", q.Archive.Kind)
	}
	for _, set := range sets {
		fmt.Fprint(out, report.Fitness(analysis.Label(set), analysis.Fitness(set, w), w))
	}
	return nil
}

// renderAnomalies flags recovery-time outliers in every set.
func renderAnomalies(q *analysis.Query, k float64, out io.Writer) error {
	sets := q.Sets()
	if len(sets) == 0 {
		return fmt.Errorf("archive holds %q, which has no workload sets to scan", q.Archive.Kind)
	}
	var all []analysis.Anomaly
	for _, set := range sets {
		all = append(all, analysis.RecoveryOutliers(set, k)...)
	}
	fmt.Fprint(out, report.Anomalies(all))
	return nil
}

// summarizeTrace ingests a JSONL telemetry trace and prints the §4.3-style
// post-mortem view: how many runs the trace covers, what the simulated
// system was doing (events by kind, busiest API functions) and how far the
// fault lifecycle got (armed → activated → injected).
func summarizeTrace(path string, out io.Writer) error {
	q, err := analysis.OpenTrace(path)
	if err != nil {
		return classify(err)
	}
	t := q.Trace
	if t.Events == 0 {
		fmt.Fprintln(out, "trace is empty")
		return nil
	}
	fmt.Fprintf(out, "trace: %d events across %d runs, virtual span %s\n",
		t.Events, t.Runs, t.Span)
	fmt.Fprintln(out, "events by kind:")
	for _, k := range t.KindsByCount() {
		fmt.Fprintf(out, "  %-18s %d\n", k, t.Kinds[k])
	}
	if len(t.Syscalls) > 0 {
		fmt.Fprintln(out, "busiest API functions:")
		for _, fn := range t.BusiestSyscalls(10) {
			fmt.Fprintf(out, "  %-18s %d\n", fn, t.Syscalls[fn])
		}
	}
	fmt.Fprintf(out, "fault lifecycle: %d armed, %d activated, %d injected\n",
		t.Armed, t.Activated, t.Injected)
	return nil
}

// summarizeJournal replays a campaign journal and reports how far the
// campaign got — the quick triage view for a crashed or interrupted run.
func summarizeJournal(path string, out io.Writer) error {
	q, err := analysis.OpenJournal(path)
	if err != nil {
		return classify(err)
	}
	j := q.Journal
	fmt.Fprintf(out, "journal: %s/%s, %d runs recorded, %d quarantined\n",
		j.Header.Workload, j.Header.Supervision, j.Records, j.Quarantined)
	if j.HasPlan {
		fmt.Fprintf(out, "plan: %d jobs (%d remaining)\n", j.PlanJobs, j.Remaining())
	}
	if j.Torn {
		fmt.Fprintln(out, "torn final record (process died mid-write); a resume discards it")
	}
	if len(j.Dispatch) > 0 {
		fmt.Fprintf(out, "fleet dispatch: %d chunks assigned, %d redispatched, %d speculated, %d drained in-process, %d worker slots exhausted\n",
			j.Dispatch["assign"], j.Dispatch["redispatch"], j.Dispatch["speculate"], j.Dispatch["local"], j.Dispatch["exhausted"])
		if j.Degraded {
			fmt.Fprintln(out, "fleet DEGRADED: the campaign completed in-process after worker budgets were exhausted (results are still complete)")
		}
	}
	fmt.Fprintf(out, "resume with:\n  dts -resume %s\n", path)
	return nil
}

// needFigure2 adapts the derived-artifact constructors.
func needFigure2[T any](a *experiments.Archive, build func(*core.Experiment) (T, error)) (T, error) {
	var zero T
	if a.Experiment == nil {
		return zero, fmt.Errorf("this artifact derives from figure2 data; archive holds %q", a.Kind)
	}
	return build(a.Experiment)
}

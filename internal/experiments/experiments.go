// Package experiments composes DTS campaigns into the paper's evaluation
// artifacts: one entry point per table and figure of §4, each returning a
// structured result that internal/report renders and bench_test.go
// regenerates. DESIGN.md's per-experiment index maps each entry point back
// to the paper.
package experiments

import (
	"context"
	"errors"
	"fmt"

	"ntdts/internal/avail"
	"ntdts/internal/core"
	"ntdts/internal/middleware/watchd"
	"ntdts/internal/stats"
	"ntdts/internal/telemetry"
	"ntdts/internal/workload"
	"ntdts/internal/workpool"
)

// Config tunes an experiment execution.
type Config struct {
	// Opts are the per-run options (defaults apply when zero).
	Opts core.RunnerOptions
	// Parallelism bounds concurrent fault-injection runs within each
	// campaign, and Table 1's concurrent calibration scans (0 =
	// GOMAXPROCS, 1 = sequential). An experiment runs its campaigns one
	// after another in canonical order, so this is its only parallelism;
	// results keep their order and value at any setting, because every
	// run is deterministic and isolated.
	Parallelism int
	// Progress, when non-nil, receives one line per completed set, in
	// canonical order, on the caller's goroutine.
	Progress func(line string)
	// Supervise is the attempt policy (watchdog, quarantine budget,
	// retries, chaos) every campaign runs under, on either executor;
	// zero fields take their defaults, and each campaign keeps its own
	// quarantine list and budget. Journaling is a single-campaign
	// facility and is not wired through experiments.
	Supervise core.SupervisorOptions
	// ShardExec, when non-nil, fans each campaign's run list out over
	// worker processes, which run it under the same policy. Table 1 is
	// calibration-only and runs neither (dts rejects both under
	// -experiment table1).
	ShardExec core.ShardExecutor
}

func (c Config) progress(format string, args ...any) {
	if c.Progress != nil {
		c.Progress(fmt.Sprintf(format, args...))
	}
}

// Supervisions is the paper's configuration order: stand-alone, MSCS,
// watchd.
func Supervisions() []workload.Supervision {
	return []workload.Supervision{workload.Standalone, workload.MSCS, workload.Watchd}
}

// --- Table 1 -----------------------------------------------------------------

// Table1Result holds the activated-function census per workload and
// configuration.
type Table1Result struct {
	// Counts[workload][supervision] = number of activated functions.
	Counts map[string]map[string]int `json:"counts"`

	// Telemetry holds the twelve calibration-run collectors in canonical
	// pair order when the census ran with telemetry enabled. Excluded from
	// the JSON archive.
	Telemetry *telemetry.Set `json:"-"`
}

// PaperTable1 is the census the paper reports, for side-by-side rendering.
func PaperTable1() map[string]map[string]int {
	return map[string]map[string]int{
		"Apache1": {"none": 13, "MSCS": 17, "watchd": 13},
		"Apache2": {"none": 22, "MSCS": 24, "watchd": 22},
		"IIS":     {"none": 76, "MSCS": 76, "watchd": 70},
		"SQL":     {"none": 71, "MSCS": 74, "watchd": 70},
	}
}

// RunTable1 measures the activated-function census with fault-free
// calibration runs (no injection required). The twelve scans are
// independent and run concurrently, cfg.Parallelism at a time; their
// progress lines follow in canonical order once all have finished. Once
// ctx is done no further scan starts, and RunTable1 returns
// core.ErrInterrupted.
func RunTable1(ctx context.Context, cfg Config) (*Table1Result, error) {
	defs := standardPairs()
	counts := make([]int, len(defs))
	recs := make([]*telemetry.Recorder, len(defs))
	err := workpool.Run(ctx, len(defs), cfg.Parallelism, func(i int) error {
		def := defs[i]
		_, res, err := core.NewRunner(def, cfg.Opts).ActivationScan()
		if err != nil {
			return fmt.Errorf("%s/%s: %w", def.Name, def.Supervision, err)
		}
		counts[i] = res.ActivatedFns
		recs[i] = res.Telemetry
		return nil
	})
	if err != nil {
		if errors.Is(err, ctx.Err()) {
			err = core.ErrInterrupted
		}
		return nil, err
	}
	out := &Table1Result{Counts: make(map[string]map[string]int)}
	if cfg.Opts.Telemetry.Enabled {
		out.Telemetry = telemetry.NewSet(recs...)
	}
	for i, def := range defs {
		cfg.progress("table1 %s/%s: %d activated functions", def.Name, def.Supervision, counts[i])
		if out.Counts[def.Name] == nil {
			out.Counts[def.Name] = make(map[string]int)
		}
		out.Counts[def.Name][def.Supervision.String()] = counts[i]
	}
	return out, nil
}

// standardPairs flattens the paper's workload×supervision grid in its
// canonical order (supervision-major, matching the sequential sweeps).
func standardPairs() []workload.Definition {
	var defs []workload.Definition
	for _, s := range Supervisions() {
		defs = append(defs, workload.StandardSet(s)...)
	}
	return defs
}

// --- Figure 2 ----------------------------------------------------------------

// RunFigure2 runs the full campaign: every workload under every
// supervision mode (watchd at version 3, as the paper's Figure 2 uses the
// improved watchd). The twelve workload sets run one after another in
// the canonical supervision-major order that Sets keeps, each on its own
// campaign pool. Cancelling ctx stops the running set between runs, and
// no later set starts: RunFigure2 returns core.ErrInterrupted.
func RunFigure2(ctx context.Context, cfg Config) (*core.Experiment, error) {
	if cfg.Opts.WatchdVersion == 0 {
		cfg.Opts.WatchdVersion = watchd.V3
	}
	exp := &core.Experiment{}
	for _, def := range standardPairs() {
		set, err := runSet(ctx, def, cfg)
		if err != nil {
			return nil, err
		}
		exp.Sets = append(exp.Sets, set)
	}
	return exp, nil
}

// runSet runs one workload set as a campaign under cfg, unless ctx is
// already done.
func runSet(ctx context.Context, def workload.Definition, cfg Config) (*core.SetResult, error) {
	if ctx.Err() != nil {
		return nil, core.ErrInterrupted
	}
	c := core.NewCampaign(core.NewRunner(def, cfg.Opts),
		core.WithParallelism(cfg.Parallelism),
		core.WithShardExecutor(cfg.ShardExec),
		core.WithSupervision(cfg.Supervise))
	set, err := c.Run(ctx)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", def.Name, def.Supervision, err)
	}
	d := set.Distribution()
	cfg.progress("%s/%s: %d injected, %.1f%% failures",
		set.Workload, set.Supervision, d.Total, set.FailurePct())
	return set, nil
}

// MergedTelemetry concatenates the per-set telemetry of an experiment in
// canonical set order: set 0's calibration run first, then its fault-list
// runs, then set 1, and so on. Nil per-run placeholders are preserved so
// run numbering in the merged export matches each set's fault list.
// Because every run owns its collector and sets keep their canonical
// positions, the merge — like the outcome data — is byte-identical at any
// parallelism. Returns nil when no set carried telemetry (i.e. the
// campaign ran with telemetry disabled).
func MergedTelemetry(sets []*core.SetResult) *telemetry.Set {
	tels := make([]*telemetry.Set, len(sets))
	for i, s := range sets {
		if s != nil {
			tels[i] = s.Telemetry
		}
	}
	return telemetry.Merge(tels...)
}

// --- Figure 3 ----------------------------------------------------------------

// Figure3Row is the weighted Apache-vs-IIS comparison for one supervision.
type Figure3Row struct {
	Supervision string             `json:"supervision"`
	ApachePct   map[string]float64 `json:"apachePct"` // weighted Apache1+Apache2
	IISPct      map[string]float64 `json:"iisPct"`
	ApacheN     int                `json:"apacheN"`
	IISN        int                `json:"iisN"`
}

// Figure3 derives the Apache-vs-IIS comparison from Figure 2 data: the
// Apache1 and Apache2 outcome percentages are weighted by their activated
// fault counts (paper §4.2).
func Figure3(exp *core.Experiment) ([]Figure3Row, error) {
	var rows []Figure3Row
	for _, s := range Supervisions() {
		a1, ok1 := exp.Find("Apache1", s.String())
		a2, ok2 := exp.Find("Apache2", s.String())
		iis, ok3 := exp.Find("IIS", s.String())
		if !ok1 || !ok2 || !ok3 {
			return nil, fmt.Errorf("figure3: missing sets for %s", s)
		}
		d1, d2, di := a1.Distribution(), a2.Distribution(), iis.Distribution()
		row := Figure3Row{
			Supervision: s.String(),
			ApachePct:   make(map[string]float64, 5),
			IISPct:      di.Pct,
			ApacheN:     d1.Total + d2.Total,
			IISN:        di.Total,
		}
		for _, o := range core.AllOutcomes() {
			k := o.String()
			row.ApachePct[k] = stats.WeightedPercent(d1.Pct[k], d1.Total, d2.Pct[k], d2.Total)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// --- Table 2 -----------------------------------------------------------------

// Table2Row is one server-program row of the common-fault comparison.
type Table2Row struct {
	Program     string  `json:"program"`
	Supervision string  `json:"supervision"`
	Activated   int     `json:"activated"`
	FailurePct  float64 `json:"failurePct"`
	RestartPct  float64 `json:"restartPct"` // restart or restart+retry successes
	RetryPct    float64 `json:"retryPct"`   // retry-only successes
}

// Table2 compares Apache to IIS counting only faults injected in both
// workload sets (paper §4.2). Rows appear in the paper's order: Apache1,
// Apache2, Apache1+Apache2, IIS — for each supervision mode.
func Table2(exp *core.Experiment) ([]Table2Row, error) {
	var rows []Table2Row
	for _, s := range Supervisions() {
		a1, ok1 := exp.Find("Apache1", s.String())
		a2, ok2 := exp.Find("Apache2", s.String())
		iis, ok3 := exp.Find("IIS", s.String())
		if !ok1 || !ok2 || !ok3 {
			return nil, fmt.Errorf("table2: missing sets for %s", s)
		}
		a1c, iisVsA1 := core.CommonInjected(a1, iis)
		a2c, iisVsA2 := core.CommonInjected(a2, iis)
		combined := append(append([]core.RunResult(nil), a1c...), a2c...)
		iisCommon := dedupeRuns(append(append([]core.RunResult(nil), iisVsA1...), iisVsA2...))

		rows = append(rows,
			table2Row("Apache1", s.String(), a1c),
			table2Row("Apache2", s.String(), a2c),
			table2Row("Apache1+Apache2", s.String(), combined),
			table2Row("IIS", s.String(), iisCommon),
		)
	}
	return rows, nil
}

// dedupeRuns removes duplicate fault specs (a fault common to both Apache
// processes appears once in the IIS column).
func dedupeRuns(runs []core.RunResult) []core.RunResult {
	seen := make(map[string]bool, len(runs))
	var out []core.RunResult
	for _, r := range runs {
		k := r.Fault.String()
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, r)
	}
	return out
}

func table2Row(program, supervision string, runs []core.RunResult) Table2Row {
	row := Table2Row{Program: program, Supervision: supervision, Activated: len(runs)}
	var fail, restart, retry int
	for _, r := range runs {
		switch r.Outcome {
		case core.Failure:
			fail++
		case core.RestartSuccess, core.RestartRetrySuccess:
			restart++
		case core.RetrySuccess:
			retry++
		}
	}
	row.FailurePct = stats.Percent(fail, len(runs))
	row.RestartPct = stats.Percent(restart, len(runs))
	row.RetryPct = stats.Percent(retry, len(runs))
	return row
}

// --- Figure 4 ----------------------------------------------------------------

// Figure4Cell is the response-time summary for one (program, supervision,
// outcome) cell, with the paper's 95% confidence interval.
type Figure4Cell struct {
	Program     string        `json:"program"`
	Supervision string        `json:"supervision"`
	Outcome     string        `json:"outcome"`
	Stats       stats.Summary `json:"stats"`
}

// Figure4 derives the response-time-by-outcome comparison of Apache
// (combined) vs IIS from Figure 2 data. Failure outcomes are split: only
// wrong-reply failures have a finite response time; no-reply failures are
// omitted, as in the paper.
func Figure4(exp *core.Experiment) ([]Figure4Cell, error) {
	var cells []Figure4Cell
	outcomes := core.AllOutcomes()
	for _, s := range Supervisions() {
		a1, ok1 := exp.Find("Apache1", s.String())
		a2, ok2 := exp.Find("Apache2", s.String())
		iis, ok3 := exp.Find("IIS", s.String())
		if !ok1 || !ok2 || !ok3 {
			return nil, fmt.Errorf("figure4: missing sets for %s", s)
		}
		for _, o := range outcomes {
			apacheTimes := append(a1.ResponseTimes(o, true), a2.ResponseTimes(o, true)...)
			cells = append(cells, Figure4Cell{
				Program: "Apache", Supervision: s.String(), Outcome: o.String(),
				Stats: stats.Summarize(apacheTimes),
			})
			cells = append(cells, Figure4Cell{
				Program: "IIS", Supervision: s.String(), Outcome: o.String(),
				Stats: stats.Summarize(iis.ResponseTimes(o, true)),
			})
		}
	}
	return cells, nil
}

// --- Figure 5 ----------------------------------------------------------------

// Figure5Result holds the watchd-evolution campaign: Apache1, IIS and SQL
// under Watchd1, Watchd2 and Watchd3 (Apache2 is omitted, as in the paper,
// because watchd has no effect on it).
type Figure5Result struct {
	// Sets[version] lists the per-workload results for that version.
	Sets map[int][]*core.SetResult `json:"sets"`

	// Telemetry is the merged per-run collectors in canonical cell order
	// (version-major, then workload) when the campaign ran with telemetry
	// enabled. Excluded from the JSON archive.
	Telemetry *telemetry.Set `json:"-"`
}

// Figure5Workloads lists the workloads the paper's Figure 5 covers.
func Figure5Workloads() []string { return []string{"Apache1", "IIS", "SQL"} }

// RunFigure5 sweeps the three watchd versions. The version×workload sets
// run one after another, version-major, each version's sets in the
// canonical workload order. Cancelling ctx stops the running set between
// runs, and no later set starts: RunFigure5 returns core.ErrInterrupted.
func RunFigure5(ctx context.Context, cfg Config) (*Figure5Result, error) {
	out := &Figure5Result{Sets: make(map[int][]*core.SetResult)}
	var sets []*core.SetResult
	for _, v := range []watchd.Version{watchd.V1, watchd.V2, watchd.V3} {
		vcfg := cfg
		vcfg.Opts.WatchdVersion = v
		for _, def := range workload.StandardSet(workload.Watchd) {
			if def.Name == "Apache2" {
				continue
			}
			set, err := runSet(ctx, def, vcfg)
			if err != nil {
				return nil, fmt.Errorf("%v: %w", v, err)
			}
			out.Sets[int(v)] = append(out.Sets[int(v)], set)
			sets = append(sets, set)
		}
	}
	out.Telemetry = MergedTelemetry(sets)
	return out, nil
}

// Find returns the Figure 5 set for a version/workload pair.
func (f *Figure5Result) Find(v watchd.Version, wl string) (*core.SetResult, bool) {
	for _, s := range f.Sets[int(v)] {
		if s.Workload == wl {
			return s, true
		}
	}
	return nil, false
}

// --- Availability (paper §5 future work) -------------------------------------

// Availability derives testing-based availability estimates from Figure 2
// campaign data — the paper's proposed bridge from fault-injection results
// to "number of nines" estimates.
func Availability(exp *core.Experiment, a avail.Assumptions) ([]avail.Estimate, error) {
	var out []avail.Estimate
	for _, wl := range []string{"Apache1", "Apache2", "IIS", "SQL"} {
		for _, s := range Supervisions() {
			set, ok := exp.Find(wl, s.String())
			if !ok {
				return nil, fmt.Errorf("availability: missing set %s/%s", wl, s)
			}
			est, err := avail.EstimateSet(set, a)
			if err != nil {
				return nil, fmt.Errorf("availability %s/%s: %w", wl, s, err)
			}
			out = append(out, est)
		}
	}
	return out, nil
}

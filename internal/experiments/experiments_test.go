package experiments

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"ntdts/internal/avail"
	"ntdts/internal/core"
	"ntdts/internal/middleware/watchd"
	"ntdts/internal/stats"
)

// The full campaigns are shared across tests via the process-wide
// memoization (they are deterministic).

func figure2(t *testing.T) *core.Experiment {
	t.Helper()
	exp, err := Cached(Config{}).Figure2()
	if err != nil {
		t.Fatalf("figure 2 campaign: %v", err)
	}
	return exp
}

func figure5(t *testing.T) *Figure5Result {
	t.Helper()
	res, err := Cached(Config{}).Figure5()
	if err != nil {
		t.Fatalf("figure 5 campaign: %v", err)
	}
	return res
}

func failPct(t *testing.T, exp *core.Experiment, wl, sup string) float64 {
	t.Helper()
	set, ok := exp.Find(wl, sup)
	if !ok {
		t.Fatalf("missing set %s/%s", wl, sup)
	}
	return set.FailurePct()
}

// TestTable1MatchesPaper asserts the activated-function census reproduces
// the paper's Table 1 exactly.
func TestTable1MatchesPaper(t *testing.T) {
	res, err := RunTable1(Config{})
	if err != nil {
		t.Fatal(err)
	}
	for wl, row := range PaperTable1() {
		for sup, want := range row {
			if got := res.Counts[wl][sup]; got != want {
				t.Errorf("Table1 %s/%s = %d, want %d (paper)", wl, sup, got, want)
			}
		}
	}
}

// TestTable1HonoursParallelism: at Parallelism 1 the twelve calibration
// scans run one at a time, so their progress lines arrive in the
// canonical pair order.
func TestTable1HonoursParallelism(t *testing.T) {
	var lines []string
	if _, err := RunTable1(Config{Parallelism: 1, Progress: func(l string) { lines = append(lines, l) }}); err != nil {
		t.Fatal(err)
	}
	defs := standardPairs()
	if len(lines) != len(defs) {
		t.Fatalf("%d progress lines, want %d", len(lines), len(defs))
	}
	for i, def := range defs {
		if want := fmt.Sprintf("table1 %s/%s:", def.Name, def.Supervision); !strings.HasPrefix(lines[i], want) {
			t.Errorf("progress line %d = %q, want %s ...", i, lines[i], want)
		}
	}
}

// TestFigure2MiddlewareReducesFailures asserts the paper's headline: both
// MSCS and watchd markedly decrease failure outcomes for every server
// program (with Apache2 as the architectural exception).
func TestFigure2MiddlewareReducesFailures(t *testing.T) {
	exp := figure2(t)
	for _, wl := range []string{"Apache1", "IIS", "SQL"} {
		none := failPct(t, exp, wl, "none")
		mscs := failPct(t, exp, wl, "MSCS")
		wd := failPct(t, exp, wl, "watchd")
		if none < 20 {
			t.Errorf("%s standalone failure %.1f%%: too low to be interesting", wl, none)
		}
		if mscs >= none {
			t.Errorf("%s: MSCS failure %.1f%% not below standalone %.1f%%", wl, mscs, none)
		}
		if wd >= none {
			t.Errorf("%s: watchd failure %.1f%% not below standalone %.1f%%", wl, wd, none)
		}
	}
}

// TestFigure2WatchdBeatsMSCS asserts "watchd does a much better job" (§4.1):
// lower failure percentage overall and for Apache1 and SQL individually.
func TestFigure2WatchdBeatsMSCS(t *testing.T) {
	exp := figure2(t)
	var mscsTotal, wdTotal float64
	for _, wl := range []string{"Apache1", "Apache2", "IIS", "SQL"} {
		mscsTotal += failPct(t, exp, wl, "MSCS")
		wdTotal += failPct(t, exp, wl, "watchd")
	}
	if wdTotal >= mscsTotal {
		t.Errorf("watchd aggregate failure %.1f not below MSCS %.1f", wdTotal, mscsTotal)
	}
	for _, wl := range []string{"Apache1", "SQL"} {
		if w, m := failPct(t, exp, wl, "watchd"), failPct(t, exp, wl, "MSCS"); w >= m {
			t.Errorf("%s: watchd %.1f%% not below MSCS %.1f%%", wl, w, m)
		}
	}
}

// TestFigure2WatchdEliminatesApache1Failures asserts the paper's specific
// observation: "for Apache1, all failure outcomes were eliminated using
// watchd".
func TestFigure2WatchdEliminatesApache1Failures(t *testing.T) {
	exp := figure2(t)
	if got := failPct(t, exp, "Apache1", "watchd"); got != 0 {
		t.Errorf("Apache1/watchd failure %.1f%%, want 0", got)
	}
}

// TestFigure2Apache2UnaffectedByMiddleware asserts §4.1's architectural
// observation: MSCS and watchd monitor only the first process, so they
// change nothing for the Apache worker.
func TestFigure2Apache2UnaffectedByMiddleware(t *testing.T) {
	exp := figure2(t)
	base, _ := exp.Find("Apache2", "none")
	baseFails := base.Distribution().Counts[core.Failure.String()]
	for _, sup := range []string{"MSCS", "watchd"} {
		set, _ := exp.Find("Apache2", sup)
		d := set.Distribution()
		// The absolute failure count must match; percentages differ
		// slightly because middleware activates extra (benign) faults,
		// exactly as the paper notes for its own counts.
		if got := d.Counts[core.Failure.String()]; got != baseFails {
			t.Errorf("Apache2/%s failure count %d, want %d (same faults as standalone)", sup, got, baseFails)
		}
		if d.Pct[core.RestartSuccess.String()] != 0 || d.Pct[core.RestartRetrySuccess.String()] != 0 {
			t.Errorf("Apache2/%s shows middleware restarts; the worker is unmonitored", sup)
		}
	}
}

// TestFigure2WatchdCoverage asserts the paper's conclusion: the improved
// watchd exhibits failure coverage greater than 90% for every server
// program.
func TestFigure2WatchdCoverage(t *testing.T) {
	exp := figure2(t)
	for _, wl := range []string{"Apache1", "Apache2", "IIS", "SQL"} {
		if got := failPct(t, exp, wl, "watchd"); got > 10 {
			t.Errorf("%s/watchd coverage %.1f%% < 90%%", wl, 100-got)
		}
	}
}

// TestFigure3IISFailsMoreThanApache asserts §4.2: the Apache web server
// (weighted) exhibits a lower failure percentage than IIS in every
// configuration, and roughly half IIS's rate stand-alone.
func TestFigure3IISFailsMoreThanApache(t *testing.T) {
	rows, err := Figure3(figure2(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		a := row.ApachePct[core.Failure.String()]
		i := row.IISPct[core.Failure.String()]
		if a >= i {
			t.Errorf("%s: Apache failure %.1f%% not below IIS %.1f%%", row.Supervision, a, i)
		}
		if row.Supervision == "none" {
			ratio := i / a
			if ratio < 1.4 || ratio > 3.0 {
				t.Errorf("standalone IIS/Apache failure ratio %.2f outside [1.4,3.0] (paper ~2)", ratio)
			}
		}
	}
}

// TestTable2CommonFaults asserts the Table 2 construction: common-fault
// sets are non-empty, Apache2 dominates the combined Apache activation,
// and Apache beats IIS on the common basis too.
func TestTable2CommonFaults(t *testing.T) {
	rows, err := Table2(figure2(t))
	if err != nil {
		t.Fatal(err)
	}
	byKey := make(map[string]Table2Row, len(rows))
	for _, r := range rows {
		byKey[r.Program+"/"+r.Supervision] = r
	}
	for _, sup := range []string{"none", "MSCS", "watchd"} {
		a1 := byKey["Apache1/"+sup]
		a2 := byKey["Apache2/"+sup]
		both := byKey["Apache1+Apache2/"+sup]
		iis := byKey["IIS/"+sup]
		if a1.Activated == 0 || a2.Activated == 0 || iis.Activated == 0 {
			t.Fatalf("%s: empty common-fault sets (%d/%d/%d)", sup, a1.Activated, a2.Activated, iis.Activated)
		}
		if a2.Activated <= a1.Activated {
			t.Errorf("%s: Apache2 common faults (%d) should exceed Apache1's (%d) — the worker provides most web functionality",
				sup, a2.Activated, a1.Activated)
		}
		if both.Activated != a1.Activated+a2.Activated {
			t.Errorf("%s: combined row %d != %d+%d", sup, both.Activated, a1.Activated, a2.Activated)
		}
		if both.FailurePct >= iis.FailurePct && sup != "watchd" {
			t.Errorf("%s: Apache combined failure %.1f%% not below IIS %.1f%% on common faults",
				sup, both.FailurePct, iis.FailurePct)
		}
	}
}

// TestFigure4Shape asserts the paper's Figure 4 observations: fault-free
// normal-success times match the calibrated values (Apache ~14.2 s, IIS
// ~18.9 s); middleware adds no appreciable fault-free overhead; and
// restart outcomes take much longer for Apache than for IIS (the SCM
// Start-Pending lock).
func TestFigure4Shape(t *testing.T) {
	cells, err := Figure4(figure2(t))
	if err != nil {
		t.Fatal(err)
	}
	get := func(program, sup, outcome string) (stats.Summary, bool) {
		for _, c := range cells {
			if c.Program == program && c.Supervision == sup && c.Outcome == outcome {
				return c.Stats, c.Stats.N > 0
			}
		}
		return stats.Summary{}, false
	}

	apacheNormal, ok := get("Apache", "none", core.NormalSuccess.String())
	if !ok {
		t.Fatal("no Apache normal-success sample")
	}
	if apacheNormal.Mean < 13 || apacheNormal.Mean > 16 {
		t.Errorf("Apache normal-success mean %.2fs, want ~14.2s", apacheNormal.Mean)
	}
	iisNormal, ok := get("IIS", "none", core.NormalSuccess.String())
	if !ok {
		t.Fatal("no IIS normal-success sample")
	}
	if iisNormal.Mean < 17 || iisNormal.Mean > 21 {
		t.Errorf("IIS normal-success mean %.2fs, want ~18.9s", iisNormal.Mean)
	}
	if iisNormal.Mean <= apacheNormal.Mean {
		t.Error("IIS should be slower than Apache on fault-free requests")
	}

	// No appreciable middleware overhead on normal success (±10%).
	for _, program := range []string{"Apache", "IIS"} {
		base, _ := get(program, "none", core.NormalSuccess.String())
		for _, sup := range []string{"MSCS", "watchd"} {
			s, ok := get(program, sup, core.NormalSuccess.String())
			if !ok {
				continue
			}
			if diff := s.Mean - base.Mean; diff > base.Mean*0.10 || diff < -base.Mean*0.10 {
				t.Errorf("%s/%s normal-success mean %.2fs deviates >10%% from standalone %.2fs",
					program, sup, s.Mean, base.Mean)
			}
		}
	}

	// Apache restarts slower than IIS restarts under watchd (the SCM
	// Start-Pending lock holds Apache restarts for the full wait hint).
	apacheRst, okA := get("Apache", "watchd", core.RestartRetrySuccess.String())
	iisRst, okI := get("IIS", "watchd", core.RestartSuccess.String())
	if okA && okI && apacheRst.Mean <= iisRst.Mean {
		t.Errorf("Apache restart mean %.2fs should exceed IIS restart mean %.2fs (SCM pending lock)",
			apacheRst.Mean, iisRst.Mean)
	}
}

// TestFigure5WatchdEvolution asserts §4.3's iterative-improvement story:
//   - Watchd1 is slightly worse than MSCS for every program;
//   - Watchd2 improves IIS dramatically while leaving Apache1 and SQL
//     essentially unchanged ("mixed success");
//   - Watchd3 dramatically improves Apache1 and SQL and is much better
//     than MSCS everywhere.
func TestFigure5WatchdEvolution(t *testing.T) {
	f5 := figure5(t)
	exp := figure2(t)
	pct := func(v watchd.Version, wl string) float64 {
		set, ok := f5.Find(v, wl)
		if !ok {
			t.Fatalf("missing figure5 set %v/%s", v, wl)
		}
		return set.FailurePct()
	}

	for _, wl := range Figure5Workloads() {
		w1 := pct(watchd.V1, wl)
		mscs := failPct(t, exp, wl, "MSCS")
		if w1 < mscs {
			t.Errorf("%s: Watchd1 failure %.1f%% should not be below MSCS %.1f%%", wl, w1, mscs)
		}
	}
	// Watchd3 beats MSCS decisively for Apache1 and SQL; for IIS the
	// paper's own Table 2 shows watchd slightly WORSE than MSCS (12.2%
	// vs 9.6%), so we only require rough parity there.
	for _, wl := range []string{"Apache1", "SQL"} {
		if w3, m := pct(watchd.V3, wl), failPct(t, exp, wl, "MSCS"); w3 >= m {
			t.Errorf("%s: Watchd3 failure %.1f%% should be below MSCS %.1f%%", wl, w3, m)
		}
	}
	if w3, m := pct(watchd.V3, "IIS"), failPct(t, exp, "IIS", "MSCS"); w3 > m+2 {
		t.Errorf("IIS: Watchd3 failure %.1f%% too far above MSCS %.1f%%", w3, m)
	}

	// Watchd2: dramatic IIS improvement, Apache1/SQL essentially
	// unchanged. Improvements are measured above the Watchd3 floor (the
	// residual wedge failures no restart-based monitor can recover).
	iisFloor := pct(watchd.V3, "IIS")
	if w1, w2 := pct(watchd.V1, "IIS")-iisFloor, pct(watchd.V2, "IIS")-iisFloor; w2 > w1/2 {
		t.Errorf("IIS: Watchd2 recoverable failure %.1f%% not a dramatic improvement over Watchd1 %.1f%%", w2, w1)
	}
	for _, wl := range []string{"Apache1", "SQL"} {
		w1, w2 := pct(watchd.V1, wl), pct(watchd.V2, wl)
		if w2 < w1-5 {
			t.Errorf("%s: Watchd2 failure %.1f%% improved over Watchd1 %.1f%%; the paper saw no improvement", wl, w2, w1)
		}
	}

	// Watchd3: Apache1 failures eliminated; SQL dramatically improved.
	if got := pct(watchd.V3, "Apache1"); got != 0 {
		t.Errorf("Apache1: Watchd3 failure %.1f%%, want 0", got)
	}
	if w2, w3 := pct(watchd.V2, "SQL"), pct(watchd.V3, "SQL"); w3 > w2/3 {
		t.Errorf("SQL: Watchd3 failure %.1f%% not a dramatic improvement over Watchd2 %.1f%%", w3, w2)
	}
}

// TestDeterministicCampaign asserts the tool's reproducibility claim: the
// same fault list yields byte-identical outcome distributions.
func TestDeterministicCampaign(t *testing.T) {
	run := func() core.Distribution {
		exp, err := RunFigure2(Config{})
		if err != nil {
			t.Fatal(err)
		}
		set, _ := exp.Find("Apache1", "none")
		return set.Distribution()
	}
	// The shared fig2 experiment was produced by an identical call.
	first := figure2(t)
	set, _ := first.Find("Apache1", "none")
	d1 := set.Distribution()
	d2 := run()
	for k, v := range d1.Counts {
		if d2.Counts[k] != v {
			t.Errorf("outcome %q: %d vs %d across identical campaigns", k, v, d2.Counts[k])
		}
	}
}

// TestAvailabilityEstimates ties the §5 extension to the campaign: the
// middleware configurations must earn strictly more nines than stand-alone
// for every workload where they reduce failures.
func TestAvailabilityEstimates(t *testing.T) {
	ests, err := Availability(figure2(t), avail.DefaultAssumptions())
	if err != nil {
		t.Fatal(err)
	}
	byKey := make(map[string]avail.Estimate, len(ests))
	for _, e := range ests {
		if e.Availability <= 0 || e.Availability > 1 {
			t.Fatalf("%s/%s availability %v out of range", e.Workload, e.Supervision, e.Availability)
		}
		byKey[e.Workload+"/"+e.Supervision] = e
	}
	for _, wl := range []string{"Apache1", "IIS", "SQL"} {
		none := byKey[wl+"/none"]
		for _, sup := range []string{"MSCS", "watchd"} {
			got := byKey[wl+"/"+sup]
			if got.Availability <= none.Availability {
				t.Errorf("%s/%s availability %.6f not above standalone %.6f",
					wl, sup, got.Availability, none.Availability)
			}
		}
	}
	// And the paper's watchd coverage conclusion shows up as nines.
	if w := byKey["SQL/watchd"]; w.NinesCount <= byKey["SQL/none"].NinesCount {
		t.Errorf("SQL watchd nines %.2f not above standalone %.2f",
			w.NinesCount, byKey["SQL/none"].NinesCount)
	}
}

// TestFigure5HonoursSupervision: every Figure 5 cell runs under the
// experiment's supervisor policy, so a 1 ns watchdog with a quarantine
// budget of 1 stops the sweep with the budget error, as it stops
// Figure 2.
func TestFigure5HonoursSupervision(t *testing.T) {
	_, err := RunFigure5(Config{Parallelism: 1,
		Supervise: core.SupervisorOptions{WallDeadline: 1, MaxQuarantined: 1}})
	var budget *core.QuarantineBudgetError
	if !errors.As(err, &budget) {
		t.Fatalf("RunFigure5 returned %v, want a *core.QuarantineBudgetError", err)
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	for _, tc := range []struct {
		name        string
		a, b        []float64
		lowerBetter bool
		bound       float64
		want        string
	}{
		{"same within bound", []float64{100, 101, 99, 100}, []float64{102, 101, 103, 102}, false, 0.10, "same"},
		{"worse beyond bound", []float64{100, 101, 99, 100}, []float64{80, 81, 79, 80}, false, 0.10, "worse"},
		{"better beyond bound", []float64{100, 101, 99, 100}, []float64{120, 121, 119, 120}, false, 0.10, "better"},
		{"lower is better: worse", []float64{1.0, 1.01, 0.99}, []float64{1.3, 1.31, 1.29}, true, 0.10, "worse"},
		{"lower is better: better", []float64{1.0, 1.01, 0.99}, []float64{0.7, 0.71, 0.69}, true, 0.10, "better"},
		{"spread wider than bound", []float64{60, 100, 140, 100}, []float64{70, 95, 130, 100}, false, 0.10, "unresolved"},
		{"wide spread but every B beats every A", []float64{60, 80, 100, 70}, []float64{101, 130, 160, 120}, false, 0.10, "better"},
		{"wide spread hides a regression", []float64{60, 100, 140, 100}, []float64{40, 70, 95, 70}, false, 0.10, "unresolved"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, _, _ := verdict(tc.a, tc.b, tc.lowerBetter, tc.bound)
			if got != tc.want {
				t.Errorf("verdict = %s, want %s", got, tc.want)
			}
		})
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 {
		t.Errorf("summarize = %+v, want q1 2.75, median 5.5, q3 8.25", s)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if s := summarize([]float64{4, 1, 2}); s.Q1 != 1 || s.Median != 2 || s.Q3 != 4 {
		t.Errorf("summarize = %+v, want q1 1, median 2, q3 4", s)
	}
}

// TestCompareFiles runs the whole -compare path on two report files and
// checks the failed-share rule: any increase is worse.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rps []float64, failed int) string {
		rep := &workloadReport{Attempted: 1000, Failed: failed, Samples: map[string][]float64{
			"wall_s": {1, 1, 1}, "runs_per_s": rps,
			"setup_s": {0.1, 0.1, 0.1}, "cpu_ms_per_run": {1, 1, 1}, "peak_rss_mb": {10, 10, 10},
		}}
		data, err := json.Marshal(&reportFile{Runs: []*runReport{{Workloads: map[string]*workloadReport{"paper-figure2": rep}}}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", []float64{100, 100, 101}, 0)
	b := write("b.json", []float64{99, 100, 100}, 0)
	c := write("c.json", []float64{100, 100, 101}, 3)
	var out bytes.Buffer
	worse, err := runCompare("../../BENCHMARK.json", a, b, &out)
	if err != nil {
		t.Fatal(err)
	}
	if worse || strings.Contains(out.String(), "unresolved") {
		t.Errorf("identical sets compared worse or unresolved:\n%s", out.String())
	}
	out.Reset()
	if worse, err = runCompare("../../BENCHMARK.json", a, c, &out); err != nil {
		t.Fatal(err)
	}
	if !worse || !strings.Contains(out.String(), "failed_frac      worse") {
		t.Errorf("more failures did not compare worse:\n%s", out.String())
	}
}

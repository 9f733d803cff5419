package main

// dtsbench -compare A.json B.json: the one tolerance rule. For every
// (workload, end-to-end metric) both report files hold, the iteration
// samples of all runs in each file are pooled and judged against the
// metric's bound from BENCHMARK.json:
//
//   - better: every B sample beats every A sample, or the median
//     improved by more than the bound;
//   - unresolved: otherwise, when either side's quartile spread (as a
//     share of its median) is wider than the bound — the runs cannot
//     tell a change of that size from noise;
//   - worse: the median got worse by more than the bound;
//   - same: the medians are within the bound.
//
// failed_frac is absolute: any increase in the failed share is worse.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchSpec is the part of BENCHMARK.json the comparison needs.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func loadReport(path string) (*reportFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f reportFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return &f, nil
}

// verdict judges B against A for one metric; it also returns the signed
// relative change of the median (positive = better) and the wider of
// the two spreads.
func verdict(a, b []float64, lowerBetter bool, bound float64) (v string, change, spread float64) {
	sa, sb := summarize(a), summarize(b)
	if sa.Median != 0 {
		change = (sb.Median - sa.Median) / sa.Median
	}
	if lowerBetter {
		change = -change
	}
	spread = max(sa.spread(), sb.spread())
	beats := func(x, y float64) bool {
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	allBetter := len(a) > 0 && len(b) > 0
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && beats(x, y)
		}
	}
	switch {
	case allBetter:
		return "better", change, spread
	case spread > bound:
		return "unresolved", change, spread
	case change < -bound:
		return "worse", change, spread
	case change > bound:
		return "better", change, spread
	default:
		return "same", change, spread
	}
}

// pooled gathers one workload's samples of a metric across all runs.
func pooled(f *reportFile, wname, metric string) []float64 {
	var xs []float64
	for _, r := range f.Runs {
		if w := r.Workloads[wname]; w != nil {
			xs = append(xs, w.Samples[metric]...)
		}
	}
	return xs
}

// failedFrac is the failed share of all runs attempted for a workload.
func failedFrac(f *reportFile, wname string) float64 {
	var failed, attempted int
	for _, r := range f.Runs {
		if w := r.Workloads[wname]; w != nil {
			failed += w.Failed
			attempted += w.Attempted
		}
	}
	return ratio(failed, attempted)
}

// runCompare prints one verdict line per (workload, metric) and reports
// whether any was worse.
func runCompare(specPath, aPath, bPath string, stdout io.Writer) (bool, error) {
	spec, err := loadBenchSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := loadReport(aPath)
	if err != nil {
		return false, err
	}
	b, err := loadReport(bPath)
	if err != nil {
		return false, err
	}
	worse := false
	fmt.Fprintf(stdout, "%-22s %-16s %-10s %12s %12s %8s %8s %6s\n", "workload", "metric", "verdict", "A", "B", "change", "spread", "bound")
	for _, w := range workloads {
		if pooled(a, w.name, "wall_s") == nil || pooled(b, w.name, "wall_s") == nil {
			continue
		}
		for _, m := range spec.EndToEnd {
			xa, xb := pooled(a, w.name, m.Name), pooled(b, w.name, m.Name)
			v, change, spread := verdict(xa, xb, m.Better == "lower", m.Bound)
			worse = worse || v == "worse"
			fmt.Fprintf(stdout, "%-22s %-16s %-10s %12.5g %12.5g %+7.1f%% %7.1f%% %5.0f%%\n",
				w.name, m.Name, v, summarize(xa).Median, summarize(xb).Median, 100*change, 100*spread, 100*m.Bound)
		}
		fa, fb := failedFrac(a, w.name), failedFrac(b, w.name)
		v := "same"
		if fb > fa {
			v, worse = "worse", true
		}
		fmt.Fprintf(stdout, "%-22s %-16s %-10s %12.5g %12.5g\n", w.name, "failed_frac", v, fa, fb)
	}
	return worse, nil
}

package main

import (
	"context"
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"
)

// TestBenchmarkDefinition checks BENCHMARK.json against the program:
// the same run length, valid names, the same workloads with the same
// reasons, and exactly the metrics (names and units) the program reports.
func TestBenchmarkDefinition(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		benchSpec
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json run_seconds = %d, the program's default run length is %d", spec.RunSeconds, runSeconds)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if !valid.MatchString(w.Name) || w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), program has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []metricSpec, want []string) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if !valid.MatchString(m.Name) || m.Name != want[i] || m.Unit != unitOf(m.Name) {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], program reports %s [%s]", kind, i, m.Name, m.Unit, want[i], unitOf(want[i]))
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s %s: better = %q", kind, m.Name, m.Better)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestShrunkWorkloads runs every workload on a shrunk input, in-process:
// set-up, the fresh-boot reference, one untraced and one traced
// iteration. Both iterations must reproduce the reference archive and
// emit every metric BENCHMARK.json lists.
func TestShrunkWorkloads(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			in := &input{dir: t.TempDir(), seed: 7, parallel: 2, limit: 40}
			if w.name == "paper-figure2" {
				in.limit = 1
			}
			if w.inputs != nil {
				if err := w.inputs(in); err != nil {
					t.Fatal(err)
				}
			}
			if w.fixture != "" {
				f := workloadNamed(w.fixture)
				if _, err := f.iterate(ctx, f, in); err != nil {
					t.Fatal(err)
				}
				if err := os.Rename(in.path(journalFile), in.path(fixtureFile)); err != nil {
					t.Fatal(err)
				}
			}
			ref, err := reference(ctx, w, in)
			if err != nil {
				t.Fatal(err)
			}
			res, err := w.iterate(ctx, w, in)
			if err != nil {
				t.Fatal(err)
			}
			traced := *in
			traced.trace = true
			tres, err := profiled(in.path(profileFile), func() (*iterResult, error) { return w.iterate(ctx, w, &traced) })
			if err != nil {
				t.Fatal(err)
			}
			if res.Digest != ref.Digest || tres.Digest != ref.Digest {
				t.Errorf("archives differ: reference %s, untraced %s, traced %s", ref.Digest, res.Digest, tres.Digest)
			}
			if res.Jobs == 0 || res.Failed != 0 {
				t.Errorf("iteration resolved %d jobs with %d failed", res.Jobs, res.Failed)
			}
			sample := (&childRun{res: res, cpu: time.Millisecond, maxRSSK: 1024}).sample()
			for _, m := range endToEnd {
				if v, ok := sample[m]; !ok || v <= 0 {
					t.Errorf("end-to-end metric %s = %v, want a positive value", m, v)
				}
			}
			layers, err := layerMetrics(tres, in.path(profileFile), res.WallS)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range perLayer {
				if _, ok := layers[m]; !ok {
					t.Errorf("per-layer metric %s missing", m)
				}
			}
			if len(layers) != len(perLayer) {
				t.Errorf("%d per-layer metrics reported, BENCHMARK.json lists %d", len(layers), len(perLayer))
			}
		})
	}
}

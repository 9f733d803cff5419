package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"ntdts/internal/core"
	"ntdts/internal/inject"
)

func sampleSet() *core.SetResult {
	return &core.SetResult{
		Workload: "IIS", Supervision: "watchd", WatchdVersion: 3,
		ActivatedFns: 70, FaultFreeSec: 18.94,
		Runs: []core.RunResult{
			{
				Fault:    inject.FaultSpec{Function: "ReadFile", Param: 1, Invocation: 1, Type: inject.FlipBits},
				Injected: true, Activated: true,
				Outcome:  core.RestartRetrySuccess,
				Restarts: 1, Completed: true, ResponseSec: 33.9,
				ServerCrash: true, GotResponse: true,
			},
		},
		SkippedFns: 480, SkippedFaults: 1500,
	}
}

func TestArchiveRoundtripSet(t *testing.T) {
	var buf bytes.Buffer
	in := &Archive{Kind: "set", Set: sampleSet()}
	if err := in.Save(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := LoadArchive(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != "set" || out.Set == nil {
		t.Fatalf("archive %+v", out)
	}
	got := out.Set
	if got.Workload != "IIS" || got.WatchdVersion != 3 || got.ActivatedFns != 70 {
		t.Fatalf("set header %+v", got)
	}
	if len(got.Runs) != 1 {
		t.Fatalf("%d runs", len(got.Runs))
	}
	r := got.Runs[0]
	if r.Fault.Function != "ReadFile" || r.Fault.Type != inject.FlipBits ||
		r.Outcome != core.RestartRetrySuccess || !r.ServerCrash {
		t.Fatalf("run %+v", r)
	}
}

func TestArchiveRoundtripFigure5(t *testing.T) {
	var buf bytes.Buffer
	in := &Archive{Kind: "figure5", Figure5: &Figure5Result{
		Sets: map[int][]*core.SetResult{1: {sampleSet()}},
	}}
	if err := in.Save(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := LoadArchive(&buf)
	if err != nil {
		t.Fatal(err)
	}
	set, ok := out.Figure5.Find(1, "IIS")
	if !ok || set.FaultFreeSec != 18.94 {
		t.Fatalf("figure5 payload %+v", out.Figure5)
	}
	if _, ok := out.Figure5.Find(2, "IIS"); ok {
		t.Fatal("found a version that was never stored")
	}
}

func TestLoadArchiveRejectsBadEnvelopes(t *testing.T) {
	for _, text := range []string{
		`{"kind":"set"}`,
		`{"kind":"figure2"}`,
		`{"kind":"figure5"}`,
		`{"kind":"table1"}`,
		`{"kind":"sideways","set":{}}`,
		`{broken`,
	} {
		if _, err := LoadArchive(strings.NewReader(text)); err == nil {
			t.Errorf("LoadArchive(%q) accepted", text)
		}
	}
}

// FuzzLoadArchive: no input panics LoadArchive, and an archive it
// accepts saves, loads back equal, and saves again to the same bytes.
// Equal allows for the lists Save omits when empty, which load back
// nil (withoutEmptyLists).
func FuzzLoadArchive(f *testing.F) {
	for _, a := range []*Archive{
		{Kind: "set", Set: sampleSet()},
		{Kind: "figure2", Experiment: &core.Experiment{Sets: []*core.SetResult{sampleSet(), sampleSet()}}},
		{Kind: "figure5", Figure5: &Figure5Result{Sets: map[int][]*core.SetResult{1: {sampleSet()}, 3: nil}}},
		{Kind: "table1", Table1: &Table1Result{Counts: PaperTable1()}},
	} {
		var buf bytes.Buffer
		if err := a.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, text := range []string{
		`{"kind":"set"}`, `{"kind":"figure2"}`, `{"kind":"figure5"}`, `{"kind":"table1"}`,
		`{"kind":"sideways","set":{}}`, `{broken`, `{"kind":"set","set":{}} {}`, `null`,
		`{"kind":"set","set":{"runs":[{"fault":{"function":"ReadFile","type":2,"node":1},"classes":[],"nodes":[{"node":1}]}],"quarantined":[]}}`,
		`{"kind":"figure5","figure5":{"sets":{"1":[null],"01":[],"-2":null}}}`,
		`{"kind":"table1","table1":{"counts":{"IIS":{"none":76},"SQL":null}}}`,
		`{"KIND":"figure2","experiment":{"sets":[{"workload":"IIS","responseSec":1e308}]}}`,
	} {
		f.Add([]byte(text))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := LoadArchive(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := a.Save(&first); err != nil {
			t.Fatalf("saving the archive loaded from %q: %v", data, err)
		}
		b, err := LoadArchive(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("loading the saved archive %s: %v", first.Bytes(), err)
		}
		if withoutEmptyLists(a); !reflect.DeepEqual(a, b) {
			t.Fatalf("archive of %q loads back as\n%+v\nwant\n%+v", data, b, a)
		}
		if err := b.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("archive of %q saves as\n%s\nthen as\n%s", data, first.Bytes(), second.Bytes())
		}
	})
}

// withoutEmptyLists sets to nil every empty list of a that Save omits
// (the omitempty Quarantined, Classes and Nodes), as loading it back
// leaves them.
func withoutEmptyLists(a *Archive) {
	sets := []*core.SetResult{a.Set}
	if a.Experiment != nil {
		sets = append(sets, a.Experiment.Sets...)
	}
	if a.Figure5 != nil {
		for _, ss := range a.Figure5.Sets {
			sets = append(sets, ss...)
		}
	}
	for _, s := range sets {
		if s == nil {
			continue
		}
		if len(s.Quarantined) == 0 {
			s.Quarantined = nil
		}
		for i := range s.Runs {
			r := &s.Runs[i]
			if len(r.Classes) == 0 {
				r.Classes = nil
			}
			if len(r.Nodes) == 0 {
				r.Nodes = nil
			}
		}
	}
}

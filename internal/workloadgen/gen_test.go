package workloadgen

import (
	"reflect"
	"strings"
	"testing"

	"ntdts/internal/workload"
)

// browserClass and batchClass are the shared test cohort: an open-loop
// Poisson class over two request kinds and a closed-loop bursty Gamma
// class.
func browserClass() ClassSpec {
	return ClassSpec{
		Name: "browser", Clients: 5, Requests: 6,
		Arrival: Arrival{Process: Poisson, Rate: 2},
		Mix:     []MixEntry{{Request: "static-115k", Weight: 3}, {Request: "cgi-1k", Weight: 1}},
	}
}

func batchClass() ClassSpec {
	return ClassSpec{
		Name: "batch", Clients: 3, Requests: 4,
		Arrival: Arrival{Process: Gamma, Rate: 1, Shape: 0.5},
		Mix:     []MixEntry{{Request: "cgi-1k", Weight: 1}},
		Closed:  true,
	}
}

func mixedCohortSpec(seed int64) CohortSpec {
	return CohortSpec{Seed: seed, Classes: []ClassSpec{browserClass(), batchClass()}}
}

// renderTrace generates the spec's schedule and serializes it.
func renderTrace(t *testing.T, spec CohortSpec) string {
	t.Helper()
	scheds, err := spec.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := WriteTrace(&b, spec.String(), scheds); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func schedulesEqual(a, b workload.ClientSchedule) bool {
	if a.Class != b.Class || a.Client != b.Client || len(a.Steps) != len(b.Steps) {
		return false
	}
	for i := range a.Steps {
		if a.Steps[i] != b.Steps[i] {
			return false
		}
	}
	return true
}

// TestSpecStringRoundTrip pins the canonical spec grammar: String and
// Parse must invert each other exactly, including seed, shape and mode
// clauses.
func TestSpecStringRoundTrip(t *testing.T) {
	specs := []CohortSpec{
		mixedCohortSpec(42),
		{Seed: -7, Classes: []ClassSpec{{
			Name: "w", Clients: 1, Requests: 1,
			Arrival: Arrival{Process: Weibull, Rate: 0.25, Shape: 3.5},
			Mix:     []MixEntry{{Request: "select-orders", Weight: 2}},
		}}},
	}
	for _, spec := range specs {
		s := spec.String()
		got, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if got.String() != s {
			t.Fatalf("round trip: %q -> %q", s, got.String())
		}
		// The round-tripped spec must generate the identical schedule.
		if renderTrace(t, spec) != renderTrace(t, got) {
			t.Fatalf("round-tripped spec %q generates a different schedule", s)
		}
	}
}

// TestParseExamples covers the documented grammar forms and defaults.
func TestParseExamples(t *testing.T) {
	spec, err := Parse("seed=42;class=browser,clients=4,requests=6,arrival=poisson,rate=2,mix=static-115k:3/cgi-1k:1")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Seed != 42 || len(spec.Classes) != 1 {
		t.Fatalf("parsed %+v", spec)
	}
	c := spec.Classes[0]
	if c.Name != "browser" || c.Clients != 4 || c.Requests != 6 || c.Closed {
		t.Fatalf("parsed class %+v", c)
	}
	if c.Arrival.Process != Poisson || c.Arrival.Rate != 2 {
		t.Fatalf("parsed arrival %+v", c.Arrival)
	}
	if len(c.Mix) != 2 || c.Mix[0] != (MixEntry{"static-115k", 3}) || c.Mix[1] != (MixEntry{"cgi-1k", 1}) {
		t.Fatalf("parsed mix %+v", c.Mix)
	}

	// Seed defaults to 1 when the clause is absent.
	spec, err = Parse("class=b,clients=1,requests=1,arrival=gamma,rate=1,shape=0.5,mix=r:1,mode=closed")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Seed != 1 || !spec.Classes[0].Closed || spec.Classes[0].Arrival.Shape != 0.5 {
		t.Fatalf("parsed %+v", spec)
	}
}

// TestParseRejects covers the corrupt-spec space.
func TestParseRejects(t *testing.T) {
	for _, s := range []string{
		"",
		"seed=42", // no classes
		"seed=x;class=a,clients=1,requests=1,arrival=poisson,rate=1,mix=r:1", // bad seed
		"class=a,clients=0,requests=1,arrival=poisson,rate=1,mix=r:1",
		"class=a,clients=1,requests=0,arrival=poisson,rate=1,mix=r:1",
		"class=a,clients=1,requests=1,arrival=poisson,rate=0,mix=r:1",
		"class=a,clients=1,requests=1,arrival=uniform,rate=1,mix=r:1",
		"class=a,clients=1,requests=1,arrival=gamma,rate=1,mix=r:1", // missing shape
		"class=a,clients=1,requests=1,arrival=poisson,rate=1,shape=2,mix=r:1",
		"class=a,clients=1,requests=1,arrival=poisson,rate=1,mix=r:0",
		"class=a,clients=1,requests=1,arrival=poisson,rate=1,mix=r", // no weight
		"class=a,clients=1,requests=1,arrival=poisson,rate=1",       // no mix
		"class=a,clients=1,requests=1,arrival=poisson,rate=1,mix=r:1,mode=turbo",
		"class=a,clients=1,requests=1,arrival=poisson,rate=1,mix=r:1,bogus=1",
		"class=a b,clients=1,requests=1,arrival=poisson,rate=1,mix=r:1",                                                           // bad name
		"class=a,clients=1,requests=1,arrival=poisson,rate=1,mix=r:1;class=a,clients=1,requests=1,arrival=poisson,rate=1,mix=r:1", // dup class
		"class=a,clients=1,requests=1,arrival=poisson,rate=1,mix=r:1/r:2",                                                         // dup mix entry
	} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted a bad spec", s)
		}
	}
}

// TestScheduleShape checks the generated schedule's structure: class
// order, client numbering, session lengths, closed-loop vs open-loop
// fields, and that every request name comes from the class's mix.
func TestScheduleShape(t *testing.T) {
	spec := mixedCohortSpec(11)
	scheds, err := spec.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	if len(scheds) != 8 {
		t.Fatalf("got %d client schedules, want 8", len(scheds))
	}
	for i, cs := range scheds {
		var class ClassSpec
		if i < 5 {
			class = browserClass()
			if cs.Class != "browser" || cs.Client != i {
				t.Fatalf("schedule %d: %s/%d", i, cs.Class, cs.Client)
			}
		} else {
			class = batchClass()
			if cs.Class != "batch" || cs.Client != i-5 {
				t.Fatalf("schedule %d: %s/%d", i, cs.Class, cs.Client)
			}
		}
		if len(cs.Steps) != class.Requests {
			t.Fatalf("%s/%d: %d steps, want %d", cs.Class, cs.Client, len(cs.Steps), class.Requests)
		}
		inMix := map[string]bool{}
		for _, m := range class.Mix {
			inMix[m.Request] = true
		}
		for _, st := range cs.Steps {
			if !inMix[st.Request] {
				t.Fatalf("%s/%d: request %q not in class mix", cs.Class, cs.Client, st.Request)
			}
			if class.Closed && (st.Think <= 0 || st.At != 0) {
				t.Fatalf("%s/%d: closed-loop step %+v", cs.Class, cs.Client, st)
			}
			if !class.Closed && (st.At <= 0 || st.Think != 0) {
				t.Fatalf("%s/%d: open-loop step %+v", cs.Class, cs.Client, st)
			}
		}
	}
	if got, want := spec.TotalRequests(), 5*6+3*4; got != want {
		t.Fatalf("TotalRequests = %d, want %d", got, want)
	}
}

// TestCompileRejectsUnknownRequest pins the compile-time catalog check:
// a mix naming a request the workload does not serve fails at Compile,
// not at run time.
func TestCompileRejectsUnknownRequest(t *testing.T) {
	spec := CohortSpec{Seed: 1, Classes: []ClassSpec{{
		Name: "c", Clients: 1, Requests: 1,
		Arrival: Arrival{Process: Poisson, Rate: 1},
		Mix:     []MixEntry{{Request: "select-orders", Weight: 1}}, // SQL request, HTTP workload
	}}}
	if _, err := Compile(workload.NewApache1(workload.Standalone), spec); err == nil {
		t.Fatal("Compile accepted a mix request absent from the workload catalog")
	}
}

// TestCompileStampsCohort checks the journal-header provenance: Compile
// records the canonical spec string on the definition.
func TestCompileStampsCohort(t *testing.T) {
	spec := mixedCohortSpec(3)
	def, err := Compile(workload.NewApache1(workload.Standalone), spec)
	if err != nil {
		t.Fatal(err)
	}
	if def.Cohort != spec.String() {
		t.Fatalf("def.Cohort = %q, want %q", def.Cohort, spec.String())
	}
	if def.WorkloadTrace != "" {
		t.Fatalf("def.WorkloadTrace = %q, want empty", def.WorkloadTrace)
	}
}

// FuzzParseRoundTrip: a cohort spec that parses renders back (String) to
// a spec string that parses to the same spec.
func FuzzParseRoundTrip(f *testing.F) {
	for _, seed := range []string{
		mixedCohortSpec(1).String(),
		"seed=42;class=browser,clients=4,requests=6,arrival=poisson,rate=2,mix=static-115k:3/cgi-1k:1",
		"class=b,clients=1,requests=1,arrival=gamma,rate=1,shape=0.5,mix=r:1,mode=closed",
		"seed=42;class=browser,clients=5,requests=6,arrival=poisson,rate=0.05,mix=static-115k:3/cgi-1k:1;" +
			"class=batch,clients=3,requests=4,arrival=gamma,rate=0.2,shape=0.5,mix=cgi-1k:1,mode=closed",
		"class=w,clients=2,requests=3,arrival=weibull,rate=1.5,shape=2,mix=a:1/b:2,mode=open",
		"", "seed=42", "seed=x;class=a,clients=1,requests=1,arrival=poisson,rate=1,mix=r:1",
		"class=a,clients=1,requests=1,arrival=gamma,rate=1,mix=r:1",
		"class=a,clients=1,requests=1,arrival=poisson,rate=1,mix=r:1/r:2",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := Parse(s)
		if err != nil {
			return
		}
		again, err := Parse(spec.String())
		if err != nil {
			t.Fatalf("Parse(%q) renders as %q, which does not parse: %v", s, spec.String(), err)
		}
		if !reflect.DeepEqual(spec, again) {
			t.Fatalf("round trip drift through %q:\n%+v\n%+v", spec.String(), spec, again)
		}
	})
}

package middleware

import (
	"testing"

	"ntdts/internal/middleware/watchd"
	"ntdts/internal/ntsim/cluster"
	"ntdts/internal/workload"
)

func TestParseRoundTrip(t *testing.T) {
	for _, s := range All() {
		got, err := Parse(s.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", s.String(), err)
		}
		if got != s {
			t.Errorf("Parse(%q) = %+v, want %+v", s.String(), got, s)
		}
	}
}

func TestParseAliases(t *testing.T) {
	cases := map[string]Spec{
		"none":       {Supervision: workload.Standalone},
		"standalone": {Supervision: workload.Standalone},
		"NONE":       {Supervision: workload.Standalone},
		"mscs":       {Supervision: workload.MSCS},
		"watchd":     {Supervision: workload.Watchd},
		"Watchd-V2":  {Supervision: workload.Watchd, WatchdVersion: watchd.V2},
	}
	for in, want := range cases {
		got, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		if got != want {
			t.Errorf("Parse(%q) = %+v, want %+v", in, got, want)
		}
	}
	if _, err := Parse("watchd-v9"); err == nil {
		t.Error("Parse(watchd-v9) should fail")
	}
	if _, err := Parse(""); err == nil {
		t.Error("Parse(\"\") should fail")
	}
}

func TestVersionDefault(t *testing.T) {
	if v := (Spec{Supervision: workload.Watchd}).Version(); v != watchd.V3 {
		t.Errorf("unpinned watchd version = %v, want v3", v)
	}
	if v := (Spec{Supervision: workload.Watchd, WatchdVersion: watchd.V1}).Version(); v != watchd.V1 {
		t.Errorf("pinned watchd version = %v, want v1", v)
	}
	if v := (Spec{Supervision: workload.MSCS}).Version(); v != 0 {
		t.Errorf("mscs version = %v, want 0", v)
	}
}

// FuzzParseMiddleware: no input panics Parse or cluster.ParsePolicy,
// the parsers of -middleware and -routing, and for any input either
// accepts, parsing its String gives back the same value.
func FuzzParseMiddleware(f *testing.F) {
	for _, s := range []string{
		"none", "standalone", "NONE", " mscs ", "watchd", "Watchd-V2", "watchd-v1", "watchd-v3",
		"watchd-v9", "", "failover", "round-robin", "least-loaded", "Round-Robin", "least-loaded ",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if spec, err := Parse(s); err == nil {
			if again, err := Parse(spec.String()); err != nil || again != spec {
				t.Fatalf("Parse(%q) = %+v, but Parse(%q) = %+v, %v", s, spec, spec.String(), again, err)
			}
		}
		if p, err := cluster.ParsePolicy(s); err == nil {
			if again, err := cluster.ParsePolicy(p.String()); err != nil || again != p {
				t.Fatalf("ParsePolicy(%q) = %v, but ParsePolicy(%q) = %v, %v", s, p, p.String(), again, err)
			}
		}
	})
}

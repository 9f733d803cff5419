// Package workloadgen generates statistical workloads: cohorts of virtual
// clients, grouped into traffic classes, whose request schedules are drawn
// from seeded Poisson, Gamma or Weibull arrival processes over virtual
// time — the step from the paper's one canned two-request client toward
// production-shaped traffic.
//
// Generation is fully deterministic: the schedule is a pure function of
// the cohort spec (seed included), independent of -parallel, -workers, Go
// version and host. Each (class, client) pair owns a decorrelated
// substream derived from the seed and the class *name*, so editing one
// class never perturbs another's schedule. A generated schedule compiles
// down to the existing workload.Definition machinery (workload.Cohort),
// and serializes to a JSONL trace (trace.go) that is itself a first-class
// campaign input — record once, replay anywhere, byte-identical archives.
package workloadgen

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"ntdts/internal/workload"
)

// MixEntry is one request kind's weight in a class's request mix.
type MixEntry struct {
	Request string
	Weight  int
}

// ClassSpec describes one traffic class: how many virtual clients, how
// long each client's session is, how arrivals are spaced, and what the
// clients ask for.
type ClassSpec struct {
	// Name labels the class in schedules, traces and per-class metrics.
	Name string
	// Clients is the number of virtual clients (each its own simulated
	// process).
	Clients int
	// Requests is the session length: scheduled requests per client.
	Requests int
	// Arrival spaces consecutive requests within one client's session.
	Arrival Arrival
	// Mix is the weighted request-kind mix, resolved against the target
	// workload's catalog at compile time.
	Mix []MixEntry
	// Closed switches the class to closed-loop load: sampled inter-arrival
	// times become think times after the previous request completes,
	// instead of absolute open-loop arrival offsets.
	Closed bool
}

// CohortSpec is a complete seeded cohort: the unit that generates one
// schedule.
type CohortSpec struct {
	Seed    int64
	Classes []ClassSpec
}

// classNameOK restricts class names to spec-string- and image-name-safe
// characters.
func classNameOK(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// requestNameOK keeps request-kind names parseable inside mix clauses.
func requestNameOK(s string) bool {
	if s == "" {
		return false
	}
	return !strings.ContainsAny(s, ";,=:/ \t\n")
}

// Validate checks the spec's internal consistency (request-kind existence
// is checked later, against a concrete workload, by Compile).
func (s CohortSpec) Validate() error {
	if len(s.Classes) == 0 {
		return fmt.Errorf("workloadgen: cohort has no classes")
	}
	seen := make(map[string]bool, len(s.Classes))
	for _, c := range s.Classes {
		if !classNameOK(c.Name) {
			return fmt.Errorf("workloadgen: bad class name %q (want [A-Za-z0-9_-]+)", c.Name)
		}
		if seen[c.Name] {
			return fmt.Errorf("workloadgen: duplicate class %q", c.Name)
		}
		seen[c.Name] = true
		if c.Clients < 1 {
			return fmt.Errorf("workloadgen: class %s: clients must be >= 1 (got %d)", c.Name, c.Clients)
		}
		if c.Requests < 1 {
			return fmt.Errorf("workloadgen: class %s: requests must be >= 1 (got %d)", c.Name, c.Requests)
		}
		if err := c.Arrival.validate(); err != nil {
			return fmt.Errorf("workloadgen: class %s: %w", c.Name, err)
		}
		if len(c.Mix) == 0 {
			return fmt.Errorf("workloadgen: class %s: empty request mix", c.Name)
		}
		mixSeen := make(map[string]bool, len(c.Mix))
		for _, m := range c.Mix {
			if !requestNameOK(m.Request) {
				return fmt.Errorf("workloadgen: class %s: bad request name %q", c.Name, m.Request)
			}
			if mixSeen[m.Request] {
				return fmt.Errorf("workloadgen: class %s: request %q listed twice in mix", c.Name, m.Request)
			}
			mixSeen[m.Request] = true
			if m.Weight < 1 {
				return fmt.Errorf("workloadgen: class %s: mix weight for %q must be >= 1 (got %d)", c.Name, m.Request, m.Weight)
			}
		}
	}
	return nil
}

// TotalRequests is the scheduled request count across the whole cohort.
func (s CohortSpec) TotalRequests() int {
	n := 0
	for _, c := range s.Classes {
		n += c.Clients * c.Requests
	}
	return n
}

// Schedule generates the cohort's client schedules: classes in spec
// order, clients 0..N-1 within each class, each client's steps strictly
// positive and cumulatively monotone. Same spec (seed included) → an
// identical schedule, always.
func (s CohortSpec) Schedule() ([]workload.ClientSchedule, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var out []workload.ClientSchedule
	for _, c := range s.Classes {
		totalWeight := 0
		for _, m := range c.Mix {
			totalWeight += m.Weight
		}
		for i := 0; i < c.Clients; i++ {
			r := newClientRNG(s.Seed, c.Name, i)
			cs := workload.ClientSchedule{
				Class:  c.Name,
				Client: i,
				Steps:  make([]workload.Step, 0, c.Requests),
			}
			var cum time.Duration
			for j := 0; j < c.Requests; j++ {
				dt := c.Arrival.interArrival(r)
				pick := r.intn(totalWeight)
				name := ""
				for _, m := range c.Mix {
					if pick < m.Weight {
						name = m.Request
						break
					}
					pick -= m.Weight
				}
				st := workload.Step{Request: name}
				if c.Closed {
					st.Think = dt
				} else {
					cum += dt
					st.At = cum
				}
				cs.Steps = append(cs.Steps, st)
			}
			out = append(out, cs)
		}
	}
	return out, nil
}

// Compile generates the spec's schedule and swaps it into base's client,
// recording the canonical spec string on the definition so journal
// headers (and through them shard workers and resumes) can rebuild the
// identical cohort.
func Compile(base workload.Definition, spec CohortSpec) (workload.Definition, error) {
	sched, err := spec.Schedule()
	if err != nil {
		return workload.Definition{}, err
	}
	def, err := workload.Cohort(base, sched)
	if err != nil {
		return workload.Definition{}, err
	}
	def.Cohort = spec.String()
	return def, nil
}

// formatFloat renders a float the shortest way that round-trips.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// String renders the canonical spec string:
//
//	seed=42;class=browser,clients=4,requests=6,arrival=poisson,rate=2,mix=static-115k:3/cgi-1k:1
//
// Classes are ';'-separated; gamma/weibull classes carry ",shape=",
// closed-loop classes carry ",mode=closed". Parse inverts it exactly.
func (s CohortSpec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d", s.Seed)
	for _, c := range s.Classes {
		fmt.Fprintf(&b, ";class=%s,clients=%d,requests=%d,arrival=%s,rate=%s",
			c.Name, c.Clients, c.Requests, c.Arrival.Process, formatFloat(c.Arrival.Rate))
		if c.Arrival.Process != Poisson {
			fmt.Fprintf(&b, ",shape=%s", formatFloat(c.Arrival.Shape))
		}
		b.WriteString(",mix=")
		for i, m := range c.Mix {
			if i > 0 {
				b.WriteByte('/')
			}
			fmt.Fprintf(&b, "%s:%d", m.Request, m.Weight)
		}
		if c.Closed {
			b.WriteString(",mode=closed")
		}
	}
	return b.String()
}

// Parse reads a cohort spec string (see String for the grammar). A
// leading "seed=N" clause is optional and defaults to 1.
func Parse(s string) (CohortSpec, error) {
	spec := CohortSpec{Seed: 1}
	sections := strings.Split(s, ";")
	start := 0
	if len(sections) > 0 && strings.HasPrefix(sections[0], "seed=") {
		n, err := strconv.ParseInt(strings.TrimPrefix(sections[0], "seed="), 10, 64)
		if err != nil {
			return CohortSpec{}, fmt.Errorf("workloadgen: bad seed %q", sections[0])
		}
		spec.Seed = n
		start = 1
	}
	for _, sec := range sections[start:] {
		sec = strings.TrimSpace(sec)
		if sec == "" {
			continue
		}
		c, err := parseClass(sec)
		if err != nil {
			return CohortSpec{}, err
		}
		spec.Classes = append(spec.Classes, c)
	}
	if err := spec.Validate(); err != nil {
		return CohortSpec{}, err
	}
	return spec, nil
}

// parseClass reads one "class=...,k=v,..." section.
func parseClass(sec string) (ClassSpec, error) {
	var c ClassSpec
	c.Arrival.Process = Poisson
	for _, kv := range strings.Split(sec, ",") {
		eq := strings.IndexByte(kv, '=')
		if eq < 0 {
			return ClassSpec{}, fmt.Errorf("workloadgen: class clause %q: expected key=value", kv)
		}
		key, val := kv[:eq], kv[eq+1:]
		switch key {
		case "class":
			c.Name = val
		case "clients":
			n, err := strconv.Atoi(val)
			if err != nil {
				return ClassSpec{}, fmt.Errorf("workloadgen: bad clients %q", val)
			}
			c.Clients = n
		case "requests":
			n, err := strconv.Atoi(val)
			if err != nil {
				return ClassSpec{}, fmt.Errorf("workloadgen: bad requests %q", val)
			}
			c.Requests = n
		case "arrival":
			p, err := parseArrivalProcess(val)
			if err != nil {
				return ClassSpec{}, fmt.Errorf("workloadgen: %w", err)
			}
			c.Arrival.Process = p
		case "rate":
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return ClassSpec{}, fmt.Errorf("workloadgen: bad rate %q", val)
			}
			c.Arrival.Rate = v
		case "shape":
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return ClassSpec{}, fmt.Errorf("workloadgen: bad shape %q", val)
			}
			c.Arrival.Shape = v
		case "mix":
			for _, part := range strings.Split(val, "/") {
				col := strings.LastIndexByte(part, ':')
				if col < 0 {
					return ClassSpec{}, fmt.Errorf("workloadgen: mix entry %q: want request:weight", part)
				}
				w, err := strconv.Atoi(part[col+1:])
				if err != nil {
					return ClassSpec{}, fmt.Errorf("workloadgen: mix weight %q", part[col+1:])
				}
				c.Mix = append(c.Mix, MixEntry{Request: part[:col], Weight: w})
			}
		case "mode":
			switch val {
			case "open":
				c.Closed = false
			case "closed":
				c.Closed = true
			default:
				return ClassSpec{}, fmt.Errorf("workloadgen: bad mode %q (want open or closed)", val)
			}
		default:
			return ClassSpec{}, fmt.Errorf("workloadgen: unknown class key %q", key)
		}
	}
	return c, nil
}

// Classes lists a schedule's distinct class names in first-seen order —
// a convenience for reports and tests.
func Classes(scheds []workload.ClientSchedule) []string {
	seen := make(map[string]bool)
	var out []string
	for _, cs := range scheds {
		if !seen[cs.Class] {
			seen[cs.Class] = true
			out = append(out, cs.Class)
		}
	}
	sort.Strings(out)
	return out
}

package workloadgen

// Seeded inter-arrival samplers. Everything here is hand-rolled on a
// splitmix64 uniform stream rather than math/rand: the generated schedule
// is a regression artifact (pinned goldens, byte-identical campaign
// archives), so the byte stream must be a pure function of the seed —
// independent of Go version, GOMAXPROCS, -parallel and -workers — and the
// only way to guarantee that is to own every bit of the pipeline.

import (
	"fmt"
	"math"
	"time"
)

// rng is a splitmix64 generator: tiny state, full 64-bit output, and a
// well-studied output function (Steele, Lea & Flood 2014).
type rng struct{ state uint64 }

// next returns the next 64 uniform bits.
func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a uniform sample in [0, 1) with 53 random bits.
func (r *rng) float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// open returns a uniform sample in (0, 1] — safe to take the log of.
func (r *rng) open() float64 {
	return 1 - r.float64()
}

// normal returns a standard normal sample via Box–Muller. One pair is
// computed and the second half discarded; schedule generation is far off
// any hot path and statelessness keeps the stream position predictable.
func (r *rng) normal() float64 {
	u1 := r.open()
	u2 := r.float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// intn returns a uniform sample in [0, n). The modulo bias at n ≪ 2^64
// is immaterial for request-mix weights.
func (r *rng) intn(n int) int {
	return int(r.next() % uint64(n))
}

// fnv64a hashes a string (FNV-1a), used to give each (class, client)
// pair its own decorrelated substream.
func fnv64a(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// newClientRNG derives the per-client generator. Mixing the class *name*
// (not its index) means adding or reordering classes never perturbs
// another class's schedule.
func newClientRNG(seed int64, class string, client int) *rng {
	r := &rng{state: uint64(seed)}
	r.state ^= fnv64a(class)
	r.next()
	r.state ^= uint64(client) * 0xd6e8feb86659fd93
	r.next()
	return r
}

// ArrivalProcess selects the inter-arrival distribution.
type ArrivalProcess int

const (
	// Poisson arrivals: exponential inter-arrival times (memoryless, the
	// classic open-system model).
	Poisson ArrivalProcess = iota + 1
	// Gamma inter-arrivals: shape < 1 is burstier than Poisson, shape > 1
	// smoother (shape 1 degenerates to Poisson).
	Gamma
	// Weibull inter-arrivals: heavy-ish tails at shape < 1, the classic
	// fit for empirical session data.
	Weibull
)

// String names the process the way cohort specs spell it.
func (a ArrivalProcess) String() string {
	switch a {
	case Poisson:
		return "poisson"
	case Gamma:
		return "gamma"
	case Weibull:
		return "weibull"
	default:
		return "unknown"
	}
}

// parseArrivalProcess inverts String.
func parseArrivalProcess(s string) (ArrivalProcess, error) {
	switch s {
	case "poisson":
		return Poisson, nil
	case "gamma":
		return Gamma, nil
	case "weibull":
		return Weibull, nil
	default:
		return 0, fmt.Errorf("unknown arrival process %q (want poisson, gamma or weibull)", s)
	}
}

// Arrival parameterizes an inter-arrival sampler. Rate is the mean
// arrival rate in requests per second for every process — the mean
// inter-arrival time is 1/Rate regardless of shape — so swapping the
// process changes burstiness, not offered load.
type Arrival struct {
	Process ArrivalProcess
	// Rate is the mean arrival rate (requests/second), > 0.
	Rate float64
	// Shape is the Gamma/Weibull shape parameter, > 0 (unused and
	// rejected for Poisson).
	Shape float64
}

// validate checks the parameter domain.
func (a Arrival) validate() error {
	if a.Rate <= 0 || math.IsNaN(a.Rate) || math.IsInf(a.Rate, 0) {
		return fmt.Errorf("arrival rate must be > 0 (got %v)", a.Rate)
	}
	switch a.Process {
	case Poisson:
		if a.Shape != 0 {
			return fmt.Errorf("poisson arrivals take no shape (got %v)", a.Shape)
		}
	case Gamma, Weibull:
		if a.Shape <= 0 || math.IsNaN(a.Shape) || math.IsInf(a.Shape, 0) {
			return fmt.Errorf("%s arrivals need shape > 0 (got %v)", a.Process, a.Shape)
		}
	default:
		return fmt.Errorf("unknown arrival process %d", a.Process)
	}
	return nil
}

// sample draws one inter-arrival time in seconds (strictly positive).
func (a Arrival) sample(r *rng) float64 {
	mean := 1 / a.Rate
	switch a.Process {
	case Poisson:
		return mean * sampleExp(r)
	case Gamma:
		// Gamma(shape k, scale θ) has mean kθ; θ = mean/k keeps the
		// configured rate.
		return (mean / a.Shape) * sampleGamma(r, a.Shape)
	case Weibull:
		// Weibull(shape k, scale λ) has mean λ·Γ(1+1/k); divide it out so
		// the configured rate survives the shape choice.
		scale := mean / math.Gamma(1+1/a.Shape)
		return scale * sampleWeibull(r, a.Shape)
	}
	panic("workloadgen: unreachable arrival process")
}

// interArrival draws one inter-arrival as a virtual duration, quantized
// up to whole microseconds so times are compact in traces and strictly
// positive by construction.
func (a Arrival) interArrival(r *rng) time.Duration {
	sec := a.sample(r)
	us := math.Ceil(sec * 1e6)
	if us < 1 {
		us = 1
	}
	return time.Duration(us) * time.Microsecond
}

// sampleExp draws Exp(1) by inversion.
func sampleExp(r *rng) float64 {
	return -math.Log(r.open())
}

// sampleGamma draws Gamma(shape k, scale 1) via Marsaglia–Tsang's
// squeeze method (k ≥ 1), boosted for k < 1 with the standard
// Gamma(k+1)·U^{1/k} identity.
func sampleGamma(r *rng, k float64) float64 {
	if k < 1 {
		return sampleGamma(r, k+1) * math.Pow(r.open(), 1/k)
	}
	d := k - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.normal()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// sampleWeibull draws Weibull(shape k, scale 1) by inversion.
func sampleWeibull(r *rng, k float64) float64 {
	return math.Pow(sampleExp(r), 1/k)
}

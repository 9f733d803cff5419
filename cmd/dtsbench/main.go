// Command dtsbench times fault-injection campaigns end to end and splits
// them by layer. Run it from the repository root:
//
//	bash cmd/dtsbench/bench.sh -workload all -seed 1 [-trace 1] [-out report.json]
//	bash cmd/dtsbench/bench.sh -compare A.json B.json
//	bash cmd/dtsbench/bench.sh -pin -seed 4
//
// bench.sh builds this program from the checkout's source (everything
// it writes stays under cmd/dtsbench/.bench_build/) and runs it with the
// given flags. Each workload runs a fixed number of iterations, sized so
// that they take about -seconds on the reference host; every iteration
// runs in a fresh child process (dtsbench -child ...) and executes one
// cold campaign iteration, as one dts invocation would.
// The program prints one "workload metric value unit" line per metric
// and, as its last line, a JSON summary. It exits non-zero when any
// archive differs from its pinned golden digest (or, for an unpinned
// seed, from the fresh-boot reference computed during set-up). See
// README.md for the workloads, the metrics and how they relate.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// endToEnd are the metrics a user of dts sees, reported per workload as
// the median over iterations.
var endToEnd = []string{"runs_per_s", "setup_s", "cpu_ms_per_run", "peak_rss_mb"}

// perLayer are the metrics of the traced iteration. Layers a workload
// does not touch report 0.
var perLayer = []string{
	"core.prepare_ms", "core.activation_ratio",
	"experiments.archive_ms", "experiments.archive_bytes",
	"shard.execute_ms", "shard.wire_bytes_in", "shard.wire_bytes_out", "shard.wire_lines_in", "shard.wire_read_wait_s",
	"shard.chunks", "shard.speculated", "shard.redispatched", "shard.worker_deaths", "shard.useful_ratio",
	"journal.bytes", "journal.records", "journal.sync_ms",
	"replay.load_s", "replay.build_ms", "replay.elided", "replay.fault_free", "replay.copied", "replay.executed", "replay.elision_rate",
	"cluster.failovers", "middleware.restarts",
	"go.allocs_per_run", "go.alloc_bytes_per_run", "go.gc_cycles", "go.gc_pause_ms",
	"trace.overhead_ratio",
}

func init() {
	for _, m := range cpuModules {
		perLayer = append(perLayer, "cpu."+m)
	}
}

// unitOf derives a metric's unit from its name's suffix convention.
func unitOf(name string) string {
	switch {
	case name == "runs_per_s":
		return "runs/s"
	case strings.HasPrefix(name, "cpu."):
		return "share"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_ms") || strings.Contains(name, "_ms_"):
		return "ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.Contains(name, "bytes"):
		return "bytes"
	case strings.HasSuffix(name, "ratio") || strings.HasSuffix(name, "_rate") || strings.HasSuffix(name, "_frac"):
		return "ratio"
	default:
		return "count"
	}
}

// runSeconds is BENCHMARK.json's run_seconds, the one run length the
// benchmark is measured at.
const runSeconds = 10

// minIterations keeps a median and quartiles meaningful however short
// -seconds is.
const minIterations = 3

// iterations is the fixed number of iterations a run of the given
// length does of w: it depends on w's nominal iteration time, never on
// how fast the tree under test is.
func (w *benchWorkload) iterations(seconds float64) int {
	return max(minIterations, int(math.Round(seconds/w.iterS)))
}

// childTimeout bounds one child iteration; the longest takes ~5s.
const childTimeout = 120 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dtsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wname := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "workload seed: permutes each workload's input")
	seconds := fs.Float64("seconds", runSeconds, "size each workload's fixed iteration count to take about this long")
	trace := fs.Int("trace", 0, "1 = add one traced iteration per workload and report the per-layer metrics")
	out := fs.String("out", "", "append this run's report to this JSON file (a loop over seeds builds one set)")
	golden := fs.String("golden", "cmd/dtsbench/testdata/golden.json", "pinned archive digests per workload and seed")
	workdir := fs.String("workdir", "cmd/dtsbench/.bench_build/work", "scratch directory for inputs, archives, journals and profiles")
	pin := fs.Bool("pin", false, "check each workload against its fresh-boot reference and pin its digest for -seed in -golden")
	compare := fs.Bool("compare", false, "compare two report files: -compare A.json B.json")
	benchmark := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the metric bounds (with -compare)")
	child := fs.String("child", "", "internal: run one iteration of this workload and print its result")
	dir := fs.String("dir", "", "internal: the child's input directory")
	ref := fs.Bool("reference", false, "internal: with -child, run the fresh-boot reference instead")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx := context.Background()
	var err error
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "dtsbench: -compare takes two report files")
			return 2
		}
		var worse bool
		worse, err = runCompare(*benchmark, fs.Arg(0), fs.Arg(1), stdout)
		if err == nil && worse {
			return 1
		}
	case *child != "":
		err = runChildMode(ctx, *child, &input{dir: *dir, seed: *seed, parallel: parallelism(), trace: *trace == 1}, *ref, stdout)
	default:
		var sel []*benchWorkload
		if sel, err = selectWorkloads(*wname); err != nil {
			break
		}
		cfg := &runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, workdir: *workdir, golden: *golden}
		if *pin {
			err = runPin(ctx, cfg, sel, stdout)
			break
		}
		var ok bool
		ok, err = runBench(ctx, cfg, sel, *out, stdout)
		if err == nil && !ok {
			return 1
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "dtsbench:", err)
		return 1
	}
	return 0
}

// parallelism is the run-pool width and fleet size: two, or fewer on a
// host with fewer CPUs.
func parallelism() int { return min(2, runtime.NumCPU()) }

func selectWorkloads(name string) ([]*benchWorkload, error) {
	if name == "all" {
		return workloads, nil
	}
	if w := workloadNamed(name); w != nil {
		return []*benchWorkload{w}, nil
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want all or one of %s)", name, strings.Join(names, ", "))
}

// runChildMode is the child process: one iteration (or the reference),
// its result printed as one JSON line.
func runChildMode(ctx context.Context, name string, in *input, ref bool, stdout io.Writer) error {
	w := workloadNamed(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	var res *iterResult
	var err error
	switch {
	case ref:
		res, err = reference(ctx, w, in)
	case in.trace:
		res, err = profiled(in.path(profileFile), func() (*iterResult, error) { return w.iterate(ctx, w, in) })
	default:
		res, err = w.iterate(ctx, w, in)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(res)
}

// runConfig carries the flags of a benchmark run.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	workdir string
	golden  string
}

// childRun is one finished child: its reported result plus the
// resources the kernel accounted to it.
type childRun struct {
	res     *iterResult
	cpu     time.Duration // user + system
	maxRSSK int64         // peak resident set, KiB
	wall    time.Duration
}

// runChild executes one child iteration of w in in.dir.
func runChild(ctx context.Context, w *benchWorkload, in *input, extra ...string) (*childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	args := append([]string{"-child", w.name, "-seed", strconv.FormatInt(in.seed, 10), "-dir", in.dir}, extra...)
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	start := time.Now()
	outb, err := cmd.Output()
	wall := time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("%s child: %w", w.name, err)
	}
	var res iterResult
	if err := json.Unmarshal(outb, &res); err != nil {
		return nil, fmt.Errorf("%s child: bad result: %w", w.name, err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, errors.New("child resource usage is unavailable on this platform")
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return &childRun{res: &res, cpu: cpu, maxRSSK: ru.Maxrss, wall: wall}, nil
}

// setUp writes a workload's seeded inputs and fixture into a fresh
// directory. Untimed.
func setUp(ctx context.Context, cfg *runConfig, w *benchWorkload) (*input, error) {
	in := &input{dir: filepath.Join(cfg.workdir, w.name), seed: cfg.seed, parallel: parallelism()}
	if err := os.RemoveAll(in.dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(in.dir, 0o755); err != nil {
		return nil, err
	}
	if w.inputs != nil {
		if err := w.inputs(in); err != nil {
			return nil, fmt.Errorf("%s inputs: %w", w.name, err)
		}
	}
	if w.fixture != "" {
		if _, err := runChild(ctx, workloadNamed(w.fixture), in); err != nil {
			return nil, fmt.Errorf("%s fixture: %w", w.name, err)
		}
		if err := os.Rename(in.path(journalFile), in.path(fixtureFile)); err != nil {
			return nil, err
		}
		if err := removeOutputs(in); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// removeOutputs deletes what an iteration wrote, so the next one starts
// as a cold dts invocation does: it creates its journal and archive
// rather than truncating the previous iteration's 57 MB journal, whose
// block freeing would otherwise land in the next campaign's set-up.
func removeOutputs(in *input) error {
	for _, name := range []string{archiveFile, journalFile, journalFile + ".ckpt"} {
		if err := os.Remove(in.path(name)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	return nil
}

// workloadReport is one workload's share of a run report.
type workloadReport struct {
	Iterations int                    `json:"iterations"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Digest     string                 `json:"digest"`
	ReferenceS float64                `json:"reference_s,omitempty"`
	Metrics    map[string]metricValue `json:"metrics"`
	Samples    map[string][]float64   `json:"samples"`
	Layers     map[string]float64     `json:"layers,omitempty"`
}

type metricValue struct {
	summary
	Unit string `json:"unit"`
}

// check records one iteration's correctness: an archive that differs
// from the expected digest fails every run of the iteration.
func (r *workloadReport) check(res *iterResult, want string) {
	r.Attempted += res.Jobs
	r.Failed += res.Failed
	r.Digest = res.Digest
	if res.Digest != want {
		r.Correct = false
		r.Failed += res.Jobs - res.Failed
	}
}

// measure runs one workload: set-up (inputs, fixture, reference for an
// unpinned seed), its fixed count of timed iterations, and with
// cfg.trace one traced iteration.
func measure(ctx context.Context, cfg *runConfig, w *benchWorkload, golden map[string]map[string]string) (*workloadReport, error) {
	in, err := setUp(ctx, cfg, w)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(in.dir)
	rep := &workloadReport{Correct: true, Samples: make(map[string][]float64), Metrics: make(map[string]metricValue)}
	want := golden[w.name][strconv.FormatInt(cfg.seed, 10)]
	if want == "" {
		ref, err := runChild(ctx, w, in, "-reference")
		if err != nil {
			return nil, err
		}
		want, rep.ReferenceS = ref.res.Digest, ref.wall.Seconds()
		if err := removeOutputs(in); err != nil {
			return nil, err
		}
	}
	for n := w.iterations(cfg.seconds); rep.Iterations < n; {
		c, err := runChild(ctx, w, in)
		if err != nil {
			return nil, err
		}
		if err := removeOutputs(in); err != nil {
			return nil, err
		}
		rep.Iterations++
		rep.check(c.res, want)
		for name, v := range c.sample() {
			rep.Samples[name] = append(rep.Samples[name], v)
		}
	}
	for name, xs := range rep.Samples {
		rep.Metrics[name] = metricValue{summarize(xs), unitOf(name)}
	}
	rep.Metrics["failed_frac"] = metricValue{summary{Median: ratio(rep.Failed, rep.Attempted)}, "ratio"}
	if !cfg.trace {
		return rep, nil
	}
	c, err := runChild(ctx, w, in, "-trace", "1")
	if err != nil {
		return nil, err
	}
	rep.check(c.res, want)
	rep.Layers, err = layerMetrics(c.res, in.path(profileFile), rep.Metrics["wall_s"].Median)
	return rep, err
}

// sample derives one iteration's end-to-end metrics, plus its wall time
// (the denominator of the tracing overhead).
func (c *childRun) sample() map[string]float64 {
	jobs := float64(max(c.res.Jobs, 1))
	return map[string]float64{
		"runs_per_s":     float64(c.res.Jobs) / c.res.WallS,
		"setup_s":        c.res.SetupS,
		"cpu_ms_per_run": ms(c.cpu) / jobs,
		"peak_rss_mb":    float64(c.maxRSSK) / 1024,
		"wall_s":         c.res.WallS,
	}
}

// layerMetrics derives every per-layer metric from a traced iteration:
// its probe results, its CPU profile's module shares, and its wall time
// against the untraced median. Layers the workload did not touch are 0.
func layerMetrics(res *iterResult, profile string, untracedWall float64) (map[string]float64, error) {
	layers := make(map[string]float64, len(perLayer))
	for _, name := range perLayer {
		layers[name] = res.Layers[name]
	}
	stacks, weights, err := readProfile(profile)
	if err != nil {
		return nil, err
	}
	for m, s := range attribute(stacks, weights) {
		layers["cpu."+m] = s
	}
	layers["trace.overhead_ratio"] = res.WallS / untracedWall
	return layers, nil
}

// runReport is one dtsbench invocation's results.
type runReport struct {
	Host      host                       `json:"host"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

// reportFile is what -out appends to: a set of runs.
type reportFile struct {
	Runs []*runReport `json:"runs"`
}

// runBench measures the selected workloads, prints the metric lines
// and the JSON summary, and appends the report to out. It reports
// whether every archive matched.
func runBench(ctx context.Context, cfg *runConfig, sel []*benchWorkload, out string, stdout io.Writer) (bool, error) {
	golden, err := loadGolden(cfg.golden)
	if err != nil {
		return false, err
	}
	rr := &runReport{Seed: cfg.seed, Seconds: cfg.seconds, Workloads: make(map[string]*workloadReport)}
	for _, w := range sel {
		rep, err := measure(ctx, cfg, w, golden)
		if err != nil {
			return false, err
		}
		rr.Workloads[w.name] = rep
		printLines(stdout, w.name, rep)
	}
	if out != "" {
		rr.Host = hostInfo()
		if err := appendReport(out, rr); err != nil {
			return false, err
		}
	}
	return printSummary(stdout, rr, sel, cfg.trace)
}

func printLines(stdout io.Writer, name string, rep *workloadReport) {
	names := append(append([]string(nil), endToEnd...), "failed_frac")
	for _, m := range names {
		fmt.Fprintf(stdout, "%s %s %g %s\n", name, m, rep.Metrics[m].Median, rep.Metrics[m].Unit)
	}
	if rep.ReferenceS > 0 {
		fmt.Fprintf(stdout, "%s reference_s %g s\n", name, rep.ReferenceS)
	}
	if rep.Layers != nil {
		for _, m := range perLayer {
			fmt.Fprintf(stdout, "%s %s %g %s\n", name, m, rep.Layers[m], unitOf(m))
		}
	}
}

// printSummary prints the final JSON line: correctness, run counts, and
// the end-to-end metrics (per-layer ones when traced). With more than
// one workload each metric name is prefixed with "<workload>.".
func printSummary(stdout io.Writer, rr *runReport, sel []*benchWorkload, traced bool) (bool, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	sum := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: make(map[string]value)}
	for _, w := range sel {
		rep := rr.Workloads[w.name]
		sum.Correct = sum.Correct && rep.Correct
		sum.Attempted += rep.Attempted
		sum.Failed += rep.Failed
		prefix := ""
		if len(sel) > 1 {
			prefix = w.name + "."
		}
		if traced {
			for _, m := range perLayer {
				sum.Metrics[prefix+m] = value{rep.Layers[m], unitOf(m)}
			}
		} else {
			for _, m := range endToEnd {
				sum.Metrics[prefix+m] = value{rep.Metrics[m].Median, unitOf(m)}
			}
		}
	}
	data, err := json.Marshal(sum)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "%s\n", data)
	return sum.Correct, nil
}

func appendReport(path string, rr *runReport) error {
	var f reportFile
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &f); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	f.Runs = append(f.Runs, rr)
	data, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// host identifies the machine a run measured.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func hostInfo() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// loadGolden reads the pinned digests: workload -> seed -> SHA-256.
func loadGolden(path string) (map[string]map[string]string, error) {
	g := make(map[string]map[string]string)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return g, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// runPin cross-checks one iteration of each workload against its
// fresh-boot reference at cfg.seed and pins the agreed digest.
func runPin(ctx context.Context, cfg *runConfig, sel []*benchWorkload, stdout io.Writer) error {
	golden, err := loadGolden(cfg.golden)
	if err != nil {
		return err
	}
	seed := strconv.FormatInt(cfg.seed, 10)
	for _, w := range sel {
		in, err := setUp(ctx, cfg, w)
		if err != nil {
			return err
		}
		got, err := runChild(ctx, w, in)
		if err != nil {
			return err
		}
		ref, err := runChild(ctx, w, in, "-reference")
		os.RemoveAll(in.dir)
		if err != nil {
			return err
		}
		if got.res.Digest != ref.res.Digest {
			return fmt.Errorf("%s seed %s: archive %s differs from the fresh-boot reference %s", w.name, seed, got.res.Digest, ref.res.Digest)
		}
		if golden[w.name] == nil {
			golden[w.name] = make(map[string]string)
		}
		golden[w.name][seed] = got.res.Digest
		fmt.Fprintf(stdout, "%s seed %s pinned %s\n", w.name, seed, got.res.Digest)
	}
	data, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(cfg.golden, append(data, '\n'), 0o644)
}

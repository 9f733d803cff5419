package shard

// Runner <-> journal.Header conversion. The shard assignment reuses the
// journal header as its configuration record, so a worker rebuilds its
// runner exactly the way dts -resume does — one codepath, one set of
// fields that must round-trip.

import (
	"time"

	"ntdts/internal/config"
	"ntdts/internal/core"
	"ntdts/internal/journal"
	"ntdts/internal/middleware/watchd"
	"ntdts/internal/telemetry"
	"ntdts/internal/workload"
	"ntdts/internal/workloadgen"
)

// HeaderFor records everything a worker process needs to rebuild r.
func HeaderFor(r *core.Runner) journal.Header {
	h := journal.Header{
		Kind:              journal.KindHeader,
		Version:           journal.Version,
		Workload:          r.Def.Name,
		Supervision:       r.Def.Supervision.String(),
		ServerUpTimeoutNS: int64(r.Opts.ServerUpTimeout),
		RunDeadlineNS:     int64(r.Opts.RunDeadline),
		Telemetry:         r.Opts.Telemetry.Enabled,
		TraceCapacity:     r.Opts.Telemetry.TraceCap,
		FreshBoot:         r.Opts.FreshBoot,
	}
	if r.Def.Supervision == workload.Watchd {
		h.WatchdVersion = int(r.Opts.WatchdVersion)
	}
	h.Cohort = r.Def.Cohort
	h.WorkloadTrace = r.Def.WorkloadTrace
	h.ClusterNodes = r.Opts.Cluster.Nodes
	h.ClusterRouting = r.Opts.Cluster.Routing
	return h
}

// PolicyFromHeader returns the attempt policy a header records: the one
// reading of it that every campaign shares — dts -config, -experiment,
// -resume and -replay, dts serve and a fleet worker. A field the header
// leaves zero takes the policy's default.
func PolicyFromHeader(h journal.Header) core.SupervisorOptions {
	return core.SupervisorOptions{
		WallDeadline:   time.Duration(h.WallDeadlineNS),
		MaxAttempts:    h.MaxAttempts,
		MaxQuarantined: h.MaxQuarantined,
		Chaos:          h.Chaos,
	}
}

// RunnerFromHeader rebuilds the runner a journal header describes —
// shared by shard workers and the dts -resume path.
func RunnerFromHeader(h journal.Header) (*core.Runner, error) {
	sv, err := workload.ParseSupervision(h.Supervision)
	if err != nil {
		return nil, err
	}
	cfg := config.DefaultMain()
	cfg.Workload = h.Workload
	cfg.Middleware = sv
	if h.WatchdVersion != 0 {
		cfg.WatchdVersion = watchd.Version(h.WatchdVersion)
	}
	def, err := cfg.Definition()
	if err != nil {
		return nil, err
	}
	// A generated-workload header carries the schedule's provenance:
	// replay the recorded trace when one is named (the trace is the source
	// of truth — it may be hand-edited), else regenerate from the cohort
	// spec string. Either way every worker and resume rebuilds the exact
	// schedule the coordinator ran.
	switch {
	case h.WorkloadTrace != "":
		def, err = workloadgen.CompileTrace(def, h.WorkloadTrace)
		if err != nil {
			return nil, err
		}
		def.Cohort = h.Cohort
	case h.Cohort != "":
		spec, perr := workloadgen.Parse(h.Cohort)
		if perr != nil {
			return nil, perr
		}
		def, err = workloadgen.Compile(def, spec)
		if err != nil {
			return nil, err
		}
	}
	opts := core.DefaultRunnerOptions()
	opts.ServerUpTimeout = time.Duration(h.ServerUpTimeoutNS)
	opts.RunDeadline = time.Duration(h.RunDeadlineNS)
	opts.WatchdVersion = cfg.WatchdVersion
	// The ring capacity shapes trace content, so the header's value wins
	// over any local default.
	opts.Telemetry = telemetry.Options{Enabled: h.Telemetry, TraceCap: h.TraceCapacity}
	// Engine choice rides the header so shard workers (and resumes) run
	// the same engine the coordinator was asked for; archives are
	// byte-identical either way, only throughput differs.
	opts.FreshBoot = h.FreshBoot
	opts.Cluster = core.ClusterConfig{Nodes: h.ClusterNodes, Routing: h.ClusterRouting}
	return core.NewRunner(def, opts), nil
}

package main

// dts serve: the long-running campaign service. Instead of one campaign
// per process invocation, a serve instance accepts campaigns over HTTP,
// runs each through the same engine the CLI uses (optionally as a
// work-stealing fleet), streams progress as JSONL, and keeps the
// archive and rendered report available for fetching:
//
//	dts serve -addr 127.0.0.1:8423
//
//	POST /api/campaigns            {"config": "...", "faults": "...",
//	                                "parallel": 2, "workers": "4"}
//	GET  /api/campaigns/{id}        status JSON (state, runs, fleet stats)
//	GET  /api/campaigns/{id}/events progress stream, one JSON line each
//	GET  /api/campaigns/{id}/archive  the results archive JSON
//	GET  /api/campaigns/{id}/report   the rendered text report
//
// The config and fault list travel inline in the submit body, so the
// service needs no shared filesystem with the submitter; "workers"
// takes the -workers syntax (count or host:port list). Every campaign
// runs under the supervisor's default policy, so a run that panics or
// keeps failing is quarantined and shows in the report, as in the CLI. A
// campaign that finishes by in-process fallback reports state
// "degraded" — the same taxonomy the CLI maps to exit code 5.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"

	"ntdts/internal/config"
	"ntdts/internal/core"
	"ntdts/internal/experiments"
	"ntdts/internal/journal"
	"ntdts/internal/shard"
)

// runServe is the `dts serve` entry point.
func runServe(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dts serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8423", "HTTP listen address")
	workerKey := fs.String("worker-key", "", "shared session key for campaigns dispatched to TCP workers (default $DTS_WORKER_KEY)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("serve: unexpected argument %q (every flag after it would be ignored)", fs.Arg(0))
	}
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	cs := newCampaignServer(*workerKey)
	hs := &http.Server{Handler: cs.mux()}
	go func() {
		<-ctx.Done()
		cs.cancelAll()
		hs.Shutdown(context.Background())
	}()
	fmt.Fprintln(out, "dts serve listening on", ln.Addr())
	if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// submitRequest is the POST /api/campaigns body.
type submitRequest struct {
	// Config is the main configuration text (not a path).
	Config string `json:"config"`
	// Faults, when non-empty, is an inline fault list overriding the
	// config's fault_list path — submitters need no shared filesystem.
	Faults string `json:"faults,omitempty"`
	// Parallel is the per-campaign (or per-worker) pool width.
	Parallel int `json:"parallel,omitempty"`
	// Workers takes the -workers syntax: a count of local worker
	// processes or a comma-separated host:port list.
	Workers string `json:"workers,omitempty"`
	// Telemetry switches trace collection on for this campaign.
	Telemetry bool `json:"telemetry,omitempty"`
}

// servedCampaign is one submitted campaign's lifecycle.
type servedCampaign struct {
	id string

	mu     sync.Mutex
	cond   *sync.Cond
	events [][]byte // progress JSONL, replayed to every events reader
	state  string   // "running", "done", "degraded", "failed"
	errMsg string
	runs   int
	total  int
	stats  *core.DispatchStats

	archive []byte
	report  string
	cancel  context.CancelFunc
}

func (c *servedCampaign) appendEvent(v any) {
	line, err := json.Marshal(v)
	if err != nil {
		return
	}
	c.mu.Lock()
	c.events = append(c.events, append(line, '\n'))
	c.cond.Broadcast()
	c.mu.Unlock()
}

// campaignServer holds every campaign submitted to this serve instance.
type campaignServer struct {
	workerKey string

	mu        sync.Mutex
	seq       int
	campaigns map[string]*servedCampaign
}

func newCampaignServer(workerKey string) *campaignServer {
	return &campaignServer{workerKey: workerKey, campaigns: make(map[string]*servedCampaign)}
}

func (s *campaignServer) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /api/campaigns/{id}", s.handleStatus)
	mux.HandleFunc("GET /api/campaigns/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /api/campaigns/{id}/archive", s.handleArchive)
	mux.HandleFunc("GET /api/campaigns/{id}/report", s.handleReport)
	return mux
}

// cancelAll stops every running campaign (server shutdown).
func (s *campaignServer) cancelAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.campaigns {
		c.cancel()
	}
}

func (s *campaignServer) lookup(r *http.Request) *servedCampaign {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.campaigns[r.PathValue("id")]
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

func (s *campaignServer) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 4<<20)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad submit body: "+err.Error())
		return
	}
	c, err := s.start(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(map[string]string{"id": c.id})
}

// start validates the submission and launches the campaign. The runner
// and the attempt policy come from the same header the CLI builds, so a
// served campaign's archive is byte-identical to dts -config's.
func (s *campaignServer) start(req submitRequest) (*servedCampaign, error) {
	h, _, err := campaignHeader(strings.NewReader(req.Config), "", journal.Header{Telemetry: req.Telemetry})
	if err != nil {
		return nil, fmt.Errorf("config: %v", err)
	}
	runner, err := shard.RunnerFromHeader(h)
	if err != nil {
		return nil, err
	}

	copts := []core.Option{core.WithParallelism(req.Parallel), core.WithSupervision(shard.PolicyFromHeader(h))}
	switch {
	case req.Faults != "":
		specs, serr := config.ParseFaultList(strings.NewReader(req.Faults))
		if serr != nil {
			return nil, fmt.Errorf("faults: %v", serr)
		}
		copts = append(copts, core.WithSpecs(specs))
	case h.FaultList != "":
		specs, serr := loadFaultList(h.FaultList)
		if serr != nil {
			return nil, serr
		}
		copts = append(copts, core.WithSpecs(specs))
	}
	if req.Workers != "" {
		ff := fleetFlags{workers: req.Workers, key: s.workerKey}
		fopts, ferr := ff.options(req.Parallel)
		if ferr != nil {
			return nil, ferr
		}
		copts = append(copts, core.WithShardExecutor(shard.NewFleet(fopts)))
	}
	return s.launch(runner, copts), nil
}

// launch registers a campaign over runner and runs it in the background.
func (s *campaignServer) launch(runner *core.Runner, copts []core.Option) *servedCampaign {
	ctx, cancel := context.WithCancel(context.Background())
	c := &servedCampaign{state: "running", cancel: cancel}
	c.cond = sync.NewCond(&c.mu)
	copts = append(copts, core.WithProgress(func(done, total int) {
		c.mu.Lock()
		c.runs, c.total = done, total
		c.mu.Unlock()
		if done%50 == 0 || done == total {
			c.appendEvent(map[string]any{"event": "progress", "done": done, "total": total})
		}
	}))

	s.mu.Lock()
	s.seq++
	c.id = fmt.Sprintf("c%d", s.seq)
	s.campaigns[c.id] = c
	s.mu.Unlock()

	c.appendEvent(map[string]any{"event": "accepted", "id": c.id,
		"workload": runner.Def.Name, "supervision": runner.Def.Supervision.String()})
	go s.execute(ctx, c, runner, copts)
	return c
}

// execute runs one campaign to completion and freezes its artifacts.
func (s *campaignServer) execute(ctx context.Context, c *servedCampaign, runner *core.Runner, copts []core.Option) {
	set, err := core.NewCampaign(runner, copts...).Run(ctx)

	c.mu.Lock()
	defer func() {
		c.cond.Broadcast()
		c.mu.Unlock()
	}()
	if err != nil {
		c.state, c.errMsg = "failed", err.Error()
		c.appendEventLocked(map[string]any{"event": "failed", "error": err.Error()})
		return
	}
	c.stats = set.Dispatch
	c.state = "done"
	if set.Dispatch != nil && set.Dispatch.Degraded {
		c.state = "degraded"
	}
	var buf bytes.Buffer
	if aerr := (&experiments.Archive{Kind: "set", Set: set}).Save(&buf); aerr == nil {
		c.archive = buf.Bytes()
	}
	var rep bytes.Buffer
	printSetSummary(set, &rep)
	c.report = rep.String()
	done := map[string]any{"event": c.state, "runs": len(set.Runs)}
	if set.Dispatch != nil {
		done["fleet"] = set.Dispatch
	}
	c.appendEventLocked(done)
}

// appendEventLocked is appendEvent for callers already holding c.mu.
func (c *servedCampaign) appendEventLocked(v any) {
	line, err := json.Marshal(v)
	if err != nil {
		return
	}
	c.events = append(c.events, append(line, '\n'))
	c.cond.Broadcast()
}

func (s *campaignServer) handleStatus(w http.ResponseWriter, r *http.Request) {
	c := s.lookup(r)
	if c == nil {
		httpError(w, http.StatusNotFound, "no such campaign")
		return
	}
	c.mu.Lock()
	st := map[string]any{
		"id": c.id, "state": c.state, "runs": c.runs, "total": c.total,
	}
	if c.errMsg != "" {
		st["error"] = c.errMsg
	}
	if c.stats != nil {
		st["fleet"] = c.stats
	}
	c.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

// handleEvents streams the campaign's progress as JSONL: every recorded
// event first, then live events until the campaign ends.
func (s *campaignServer) handleEvents(w http.ResponseWriter, r *http.Request) {
	c := s.lookup(r)
	if c == nil {
		httpError(w, http.StatusNotFound, "no such campaign")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	ctx := r.Context()
	go func() {
		<-ctx.Done()
		c.cond.Broadcast() // unpark the wait below when the client leaves
	}()
	i := 0
	for {
		c.mu.Lock()
		for i >= len(c.events) && c.state == "running" && ctx.Err() == nil {
			c.cond.Wait()
		}
		if ctx.Err() != nil {
			c.mu.Unlock()
			return
		}
		var batch [][]byte
		for ; i < len(c.events); i++ {
			batch = append(batch, c.events[i])
		}
		running := c.state == "running"
		c.mu.Unlock()
		for _, line := range batch {
			if _, err := w.Write(line); err != nil {
				return
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		if !running {
			return
		}
	}
}

func (s *campaignServer) handleArchive(w http.ResponseWriter, r *http.Request) {
	c := s.lookup(r)
	if c == nil {
		httpError(w, http.StatusNotFound, "no such campaign")
		return
	}
	c.mu.Lock()
	archive, state := c.archive, c.state
	c.mu.Unlock()
	if archive == nil {
		httpError(w, http.StatusConflict, "campaign "+state+": no archive yet")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(archive)
}

func (s *campaignServer) handleReport(w http.ResponseWriter, r *http.Request) {
	c := s.lookup(r)
	if c == nil {
		httpError(w, http.StatusNotFound, "no such campaign")
		return
	}
	c.mu.Lock()
	report, state := c.report, c.state
	c.mu.Unlock()
	if report == "" {
		httpError(w, http.StatusConflict, "campaign "+state+": no report yet")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, report)
}

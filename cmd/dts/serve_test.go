package main

// dts serve self-tests: submit a campaign over HTTP with inline config
// and fault list, stream its progress events, and fetch the archive and
// report — plus the error paths automation keys on.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ntdts/internal/config"
	"ntdts/internal/core"
	"ntdts/internal/experiments"
	"ntdts/internal/inject"
	"ntdts/internal/ntsim"
	"ntdts/internal/ntsim/win32"
	"ntdts/internal/workload"
)

// serveFaultList renders an inline fault list covering roughly n specs.
func serveFaultList(t *testing.T, n int) string {
	t.Helper()
	var entries []config.CatalogEntry
	specCount := 0
	for _, e := range win32.Catalog() {
		if e.Params == 0 {
			continue
		}
		entries = append(entries, config.CatalogEntry{Name: e.Name, Params: e.Params})
		specCount += e.Params * 3
		if specCount >= n {
			break
		}
	}
	var buf bytes.Buffer
	if err := config.WriteFaultList(&buf, config.GenerateFaultList(entries)); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// submitCampaign POSTs a campaign and returns its id.
func submitCampaign(t *testing.T, ts *httptest.Server, req submitRequest) string {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/api/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("submit: status %d: %v", resp.StatusCode, e)
	}
	var acc map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	if acc["id"] == "" {
		t.Fatal("submit returned no campaign id")
	}
	return acc["id"]
}

// campaignState polls the status endpoint until the campaign leaves
// "running", returning the final status object.
func campaignState(t *testing.T, ts *httptest.Server, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/api/campaigns/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st map[string]any
		jerr := json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if jerr != nil {
			t.Fatal(jerr)
		}
		if st["state"] != "running" {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("campaign never finished")
	return nil
}

// TestServeCampaignLifecycle drives the whole HTTP surface: submit with
// inline config+faults, stream events to completion, fetch the archive
// (it must parse as a set archive with every run present) and the
// rendered report.
func TestServeCampaignLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real campaign")
	}
	cs := newCampaignServer("")
	ts := httptest.NewServer(cs.mux())
	defer ts.Close()
	defer cs.cancelAll()

	faults := serveFaultList(t, 120)
	id := submitCampaign(t, ts, submitRequest{
		Config:   "workload = IIS\nmiddleware = none\n",
		Faults:   faults,
		Parallel: 2,
	})

	// The events stream replays history and follows the campaign to its
	// terminal event.
	resp, err := http.Get(ts.URL + "/api/campaigns/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var kinds []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		kinds = append(kinds, ev["event"].(string))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(kinds) < 2 || kinds[0] != "accepted" || kinds[len(kinds)-1] != "done" {
		t.Fatalf("event stream = %v, want accepted ... done", kinds)
	}

	st := campaignState(t, ts, id)
	if st["state"] != "done" {
		t.Fatalf("final state = %v, want done", st["state"])
	}
	specs, err := config.ParseFaultList(strings.NewReader(faults))
	if err != nil {
		t.Fatal(err)
	}
	wantRuns := len(specs)

	aresp, err := http.Get(ts.URL + "/api/campaigns/" + id + "/archive")
	if err != nil {
		t.Fatal(err)
	}
	defer aresp.Body.Close()
	if aresp.StatusCode != http.StatusOK {
		t.Fatalf("archive: status %d", aresp.StatusCode)
	}
	archive, err := experiments.LoadArchive(aresp.Body)
	if err != nil {
		t.Fatalf("archive does not parse: %v", err)
	}
	if archive.Kind != "set" || archive.Set == nil {
		t.Fatalf("archive kind = %q, want a set archive", archive.Kind)
	}
	if got := len(archive.Set.Runs); got != wantRuns {
		t.Fatalf("archive holds %d runs, want %d", got, wantRuns)
	}

	rresp, err := http.Get(ts.URL + "/api/campaigns/" + id + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("report: status %d", rresp.StatusCode)
	}
	var rep bytes.Buffer
	rep.ReadFrom(rresp.Body)
	if !strings.Contains(rep.String(), "IIS/none") {
		t.Fatalf("report missing the workload line:\n%s", rep.String())
	}
}

// TestServeArchiveMatchesCLI: a served campaign builds its runner from
// the same header as dts -config, so its archive is byte-identical to
// the CLI's over the same config and fault list — in process and on a
// two-worker fleet. The fleet campaign collects telemetry, so its
// report ends with the metrics block dts -metrics prints; the
// in-process one collects none, and its report has no counters.
func TestServeArchiveMatchesCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real campaigns")
	}
	t.Setenv("DTS_HELPER_PROCESS", "1") // fleet workers re-enter via TestHelperProcess
	dir := t.TempDir()
	cfgText := "workload = IIS\nmiddleware = watchd-v2\n"
	faults := serveFaultList(t, 120)
	listPath, cfgPath := filepath.Join(dir, "faults.lst"), filepath.Join(dir, "dts.cfg")
	if err := os.WriteFile(listPath, []byte(faults), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cfgPath, []byte(cfgText+"fault_list = "+listPath+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "cli.json")
	var out bytes.Buffer
	if err := run([]string{"-config", cfgPath, "-out", outPath, "-q", "-metrics"}, &out); err != nil {
		t.Fatal(err)
	}
	cli := out.String()
	metrics := cli[strings.LastIndex(cli, "\nruns ")+1:]
	if !strings.Contains(metrics, "\ncounters:\n") {
		t.Fatalf("dts -metrics printed no counters:\n%s", cli)
	}
	want, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}

	cs := newCampaignServer("")
	ts := httptest.NewServer(cs.mux())
	defer ts.Close()
	defer cs.cancelAll()
	get := func(id, artifact string) []byte {
		resp, err := http.Get(ts.URL + "/api/campaigns/" + id + "/" + artifact)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	for _, workers := range []string{"", "2"} {
		tel := workers != ""
		id := submitCampaign(t, ts, submitRequest{Config: cfgText, Faults: faults, Parallel: 2, Workers: workers, Telemetry: tel})
		if st := campaignState(t, ts, id); st["state"] != "done" {
			t.Fatalf("workers=%q: final state = %v, want done", workers, st["state"])
		}
		if !bytes.Equal(want, get(id, "archive")) {
			t.Errorf("workers=%q: served archive differs from dts -config's", workers)
		}
		report := string(get(id, "report"))
		if strings.Contains(report, "\ncounters:\n") != tel {
			t.Errorf("workers=%q, telemetry %v: report\n%s", workers, tel, report)
		}
		if tel && !strings.HasSuffix(report, "\n"+metrics) {
			t.Errorf("workers=%q: report does not end with dts -metrics' block\n%s\nwant\n%s", workers, report, metrics)
		}
	}
}

// TestServeFleetCampaignDegraded submits a fleet campaign whose workers
// can never spawn (a dead TCP address): the campaign must still finish
// and surface state "degraded" — the serve-side face of exit code 5.
func TestServeFleetCampaignDegraded(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real campaign")
	}
	cs := newCampaignServer("")
	ts := httptest.NewServer(cs.mux())
	defer ts.Close()
	defer cs.cancelAll()

	id := submitCampaign(t, ts, submitRequest{
		Config:   "workload = IIS\nmiddleware = none\n",
		Faults:   serveFaultList(t, 60),
		Parallel: 1,
		Workers:  deadTCPAddr(t),
	})
	st := campaignState(t, ts, id)
	if st["state"] != "degraded" {
		t.Fatalf("final state = %v, want degraded", st["state"])
	}
	fleet, ok := st["fleet"].(map[string]any)
	if !ok || fleet["Degraded"] != true {
		t.Fatalf("status fleet stats = %v, want Degraded true", st["fleet"])
	}
	// Artifacts are still complete on a degraded completion.
	aresp, err := http.Get(ts.URL + "/api/campaigns/" + id + "/archive")
	if err != nil {
		t.Fatal(err)
	}
	defer aresp.Body.Close()
	if aresp.StatusCode != http.StatusOK {
		t.Fatalf("archive after degraded completion: status %d", aresp.StatusCode)
	}
}

// TestServeQuarantinesPanickingRuns: a campaign whose runner panics on
// every fault run (its client spawn, on the harness goroutine) ends
// "done" under serve: the supervisor quarantines the run, /report shows
// the quarantine as the CLI's report does, and the server keeps
// answering — it runs the next campaign to completion.
func TestServeQuarantinesPanickingRuns(t *testing.T) {
	cs := newCampaignServer("")
	ts := httptest.NewServer(cs.mux())
	defer ts.Close()
	defer cs.cancelAll()

	def := workload.NewIIS(workload.Standalone)
	spawn := def.SpawnClient
	var calls atomic.Int32
	def.SpawnClient = func(k *ntsim.Kernel) (*ntsim.Process, *workload.Report, error) {
		if calls.Add(1) == 1 {
			return spawn(k) // the calibration run
		}
		panic("harness bug")
	}
	spec := inject.FaultSpec{Function: "ReadFile", Param: 1, Invocation: 1, Type: inject.FlipBits}
	c := cs.launch(core.NewRunner(def, core.DefaultRunnerOptions()), []core.Option{core.WithSpecs([]inject.FaultSpec{spec})})
	if st := campaignState(t, ts, c.id); st["state"] != "done" {
		t.Fatalf("panicking campaign ended %v, want done", st)
	}
	resp, err := http.Get(ts.URL + "/api/campaigns/" + c.id + "/report")
	if err != nil {
		t.Fatal(err)
	}
	report, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"IIS/none", "Quarantined runs: 1", "panic after 3 attempts: harness bug"} {
		if !strings.Contains(string(report), want) {
			t.Errorf("report lacks %q:\n%s", want, report)
		}
	}

	id := submitCampaign(t, ts, submitRequest{Config: "workload = IIS\nmiddleware = none\n", Faults: "ReadFile 1 1 flip\n"})
	if st := campaignState(t, ts, id); st["state"] != "done" {
		t.Fatalf("next campaign ended %v, want done", st)
	}
}

// TestServeErrors covers the machine-readable error paths: bad config,
// unknown campaign, and artifacts requested before completion.
func TestServeErrors(t *testing.T) {
	cs := newCampaignServer("")
	ts := httptest.NewServer(cs.mux())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/api/campaigns", "application/json",
		strings.NewReader(`{"config": "workload = nonsense\n"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad config: status %d, want 400", resp.StatusCode)
	}

	for _, path := range []string{"/api/campaigns/nope", "/api/campaigns/nope/events",
		"/api/campaigns/nope/archive", "/api/campaigns/nope/report"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestServeConnectionTimeouts: dts serve closes a connection whose
// request line never finishes, and a kept-alive connection left idle,
// once its deadlines pass, while an /events stream that outlives both
// deadlines still follows its campaign to the terminal event.
func TestServeConnectionTimeouts(t *testing.T) {
	defer func(h, i time.Duration) { serveReadHeaderTimeout, serveIdleTimeout = h, i }(serveReadHeaderTimeout, serveIdleTimeout)
	serveReadHeaderTimeout, serveIdleTimeout = 100*time.Millisecond, 100*time.Millisecond
	cs := newCampaignServer("")
	ts := httptest.NewUnstartedServer(nil)
	ts.Config = newHTTPServer(cs.mux())
	ts.Start()
	defer ts.Close()
	defer cs.cancelAll()

	// closedAfter writes req on a fresh connection and returns what the
	// server sent before it closed the connection, which must be no
	// sooner than the deadline that closed it.
	closedAfter := func(what, req string, deadline time.Duration) string {
		t.Helper()
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		start := time.Now()
		if _, err := io.WriteString(conn, req); err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(conn)
		if err != nil {
			t.Fatalf("%s: the server kept the connection open: %v", what, err)
		}
		if took := time.Since(start); took < deadline {
			t.Fatalf("%s: closed after %v, before its %v deadline", what, took, deadline)
		}
		return string(got)
	}
	if got := closedAfter("half-sent request line", "GET /api/campaigns/c1 HT", serveReadHeaderTimeout); got != "" && !strings.HasPrefix(got, "HTTP/1.1 400") {
		t.Fatalf("half-sent request line answered %q, want nothing or a 400", got)
	}
	if got := closedAfter("idle keep-alive", "GET /api/campaigns/nope HTTP/1.1\r\nHost: dts\r\n\r\n", serveIdleTimeout); !strings.HasPrefix(got, "HTTP/1.1 404") {
		t.Fatalf("idle keep-alive connection got %q before closing, want one 404 response", got)
	}

	// The campaign's fault run waits until both deadlines have passed
	// several times over, while the events stream is open.
	def := workload.NewIIS(workload.Standalone)
	spawn := def.SpawnClient
	release := make(chan struct{})
	t.Cleanup(func() {
		select {
		case <-release:
		default:
			close(release)
		}
	})
	var calls atomic.Int32
	def.SpawnClient = func(k *ntsim.Kernel) (*ntsim.Process, *workload.Report, error) {
		if calls.Add(1) > 1 {
			<-release
		}
		return spawn(k)
	}
	spec := inject.FaultSpec{Function: "ReadFile", Param: 1, Invocation: 1, Type: inject.FlipBits}
	c := cs.launch(core.NewRunner(def, core.DefaultRunnerOptions()), []core.Option{core.WithSpecs([]inject.FaultSpec{spec})})
	resp, err := http.Get(ts.URL + "/api/campaigns/" + c.id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() || !strings.Contains(sc.Text(), `"accepted"`) {
		t.Fatalf("first event %q (%v), want accepted", sc.Text(), sc.Err())
	}
	time.Sleep(5 * serveIdleTimeout)
	close(release)
	var last string
	for sc.Scan() {
		last = sc.Text()
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("events stream broke after outliving the deadlines: %v", err)
	}
	if !strings.Contains(last, `"event":"done"`) {
		t.Fatalf("events stream ended with %q, want the done event", last)
	}
}

// deadTCPAddr binds an ephemeral loopback port and frees it: a dial
// target that refuses connections quickly.
func deadTCPAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

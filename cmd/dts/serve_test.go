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
	"testing"
	"time"

	"ntdts/internal/config"
	"ntdts/internal/experiments"
	"ntdts/internal/ntsim/win32"
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
// two-worker fleet.
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
	if err := run([]string{"-config", cfgPath, "-out", outPath, "-q"}, &out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}

	cs := newCampaignServer("")
	ts := httptest.NewServer(cs.mux())
	defer ts.Close()
	defer cs.cancelAll()
	for _, workers := range []string{"", "2"} {
		id := submitCampaign(t, ts, submitRequest{Config: cfgText, Faults: faults, Parallel: 2, Workers: workers})
		if st := campaignState(t, ts, id); st["state"] != "done" {
			t.Fatalf("workers=%q: final state = %v, want done", workers, st["state"])
		}
		resp, err := http.Get(ts.URL + "/api/campaigns/" + id + "/archive")
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("workers=%q: served archive differs from dts -config's", workers)
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

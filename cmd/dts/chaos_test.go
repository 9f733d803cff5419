package main

// Chaos self-tests for the campaign supervisor: a child dts process is
// SIGKILLed (and SIGTERMed) mid-campaign, then the journal is resumed
// in-process and the final archive must be byte-identical to an
// uninterrupted run. The child is this test binary re-exec'd through
// TestHelperProcess — the standard os/exec self-test pattern.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"ntdts/internal/config"
	"ntdts/internal/ntsim/win32"
)

// TestHelperProcess is not a test: when re-exec'd with the env marker it
// becomes the dts CLI, running the args after "--" through run() with
// main()'s exit-code mapping.
func TestHelperProcess(t *testing.T) {
	if os.Getenv("DTS_HELPER_PROCESS") != "1" {
		return
	}
	args := os.Args
	for i, a := range args {
		if a == "--" {
			args = args[i+1:]
			break
		}
	}
	if err := run(args, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dts:", err)
		var ee *exitError
		if errors.As(err, &ee) {
			os.Exit(ee.code)
		}
		os.Exit(1)
	}
	os.Exit(0)
}

// dtsChild re-execs this binary as a dts process.
func dtsChild(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=TestHelperProcess", "--"}, args...)...)
	cmd.Env = append(os.Environ(), "DTS_HELPER_PROCESS=1")
	return cmd
}

// chaosCampaign writes a ~200-spec config+fault-list pair and returns the
// config path.
func chaosCampaign(t *testing.T, dir string) string {
	t.Helper()
	var entries []config.CatalogEntry
	specCount := 0
	for _, e := range win32.Catalog() {
		if e.Params == 0 {
			continue
		}
		entries = append(entries, config.CatalogEntry{Name: e.Name, Params: e.Params})
		specCount += e.Params * 3
		if specCount >= 200 {
			break
		}
	}
	specs := config.GenerateFaultList(entries)
	listPath := filepath.Join(dir, "faults.lst")
	lf, err := os.Create(listPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := config.WriteFaultList(lf, specs); err != nil {
		t.Fatal(err)
	}
	lf.Close()
	cfgPath := filepath.Join(dir, "dts.cfg")
	if err := os.WriteFile(cfgPath, []byte(
		"workload = IIS\nmiddleware = none\nfault_list = "+listPath+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return cfgPath
}

// goldenArchive runs the campaign journaled and uninterrupted in-process.
func goldenArchive(t *testing.T, dir, cfgPath string) []byte {
	t.Helper()
	outPath := filepath.Join(dir, "golden.json")
	var out bytes.Buffer
	err := run([]string{"-config", cfgPath, "-out", outPath, "-q",
		"-journal", filepath.Join(dir, "golden.journal"), "-parallel", "2"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// waitForJournal polls until the child's journal holds at least minLines
// newline-terminated lines (header + plan + records), i.e. the campaign
// is demonstrably underway.
func waitForJournal(t *testing.T, path string, minLines int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		data, err := os.ReadFile(path)
		if err == nil && bytes.Count(data, []byte("\n")) >= minLines {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("journal %s never reached %d lines", path, minLines)
}

// TestChaosKillResume is the PR's headline chaos test: SIGKILL a child
// dts mid-campaign — the one failure no in-process handler can soften —
// then resume from the torn journal and require the final archive to be
// byte-identical to the uninterrupted golden run. A -workers fleet's
// journal (dispatch lines among the runs) resumes the same way, in
// process.
func TestChaosKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec chaos test")
	}
	dir := t.TempDir()
	cfgPath := chaosCampaign(t, dir)
	golden := goldenArchive(t, dir, cfgPath)

	for _, c := range []struct {
		name  string
		extra []string
	}{
		{"local", nil},
		{"workers", []string{"-workers", "2"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			jpath := filepath.Join(dir, c.name+".journal")
			child := dtsChild(append([]string{"-config", cfgPath, "-out", filepath.Join(dir, c.name+"-killed.json"),
				"-q", "-journal", jpath, "-parallel", "2"}, c.extra...)...)
			if err := child.Start(); err != nil {
				t.Fatal(err)
			}
			waitForJournal(t, jpath, 20)
			child.Process.Kill() // SIGKILL: no flush, no handler, torn tail likely
			child.Wait()

			outPath := filepath.Join(dir, c.name+"-resumed.json")
			var out bytes.Buffer
			if err := run([]string{"-resume", jpath, "-out", outPath, "-q"}, &out); err != nil {
				t.Fatalf("resume after SIGKILL: %v", err)
			}
			resumed, err := os.ReadFile(outPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(golden, resumed) {
				t.Fatal("archive resumed after SIGKILL differs from uninterrupted golden run")
			}
		})
	}
}

// TestChaosSigtermResume: SIGTERM takes the graceful path — the child
// drains its workers, flushes the journal, prints the exact resume
// command, and exits with the dedicated interrupted code. Running the
// printed command must give the golden archive; a -workers fleet's hint
// keeps its -workers value, so the fleet finishes the campaign.
func TestChaosSigtermResume(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec chaos test")
	}
	t.Setenv("DTS_HELPER_PROCESS", "1") // fleet workers re-enter via TestHelperProcess
	dir := t.TempDir()
	cfgPath := chaosCampaign(t, dir)
	golden := goldenArchive(t, dir, cfgPath)

	for _, c := range []struct {
		name  string
		extra []string
	}{
		{"local", nil},
		{"workers", []string{"-workers", "2"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			jpath, outPath := filepath.Join(dir, c.name+".journal"), filepath.Join(dir, c.name+".json")
			var childOut bytes.Buffer
			child := dtsChild(append([]string{"-config", cfgPath, "-out", outPath,
				"-q", "-journal", jpath, "-parallel", "1"}, c.extra...)...)
			child.Stdout = &childOut
			child.Stderr = &childOut
			if err := child.Start(); err != nil {
				t.Fatal(err)
			}
			waitForJournal(t, jpath, 10)
			child.Process.Signal(syscall.SIGTERM)
			err := child.Wait()
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() != exitInterrupted {
				t.Fatalf("SIGTERM exit: %v, want exit code %d\noutput:\n%s", err, exitInterrupted, childOut.String())
			}
			text := childOut.String()
			_, hint, ok := strings.Cut(text, "resume with:\n")
			if !strings.Contains(text, "interrupted:") || !ok {
				t.Fatalf("interrupt output missing journal/resume lines:\n%s", text)
			}
			hint, _, _ = strings.Cut(strings.TrimSpace(hint), "\n")
			want := "dts -resume " + jpath + " -parallel 1 " + strings.Join(c.extra, " ")
			if !strings.HasPrefix(hint, strings.TrimSpace(want)) {
				t.Fatalf("resume hint %q, want it to start %q", hint, want)
			}

			var out bytes.Buffer
			if err := run(append(strings.Fields(hint)[1:], "-q"), &out); err != nil {
				t.Fatalf("%s after SIGTERM: %v", hint, err)
			}
			resumed, err := os.ReadFile(outPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(golden, resumed) {
				t.Fatal("archive resumed after SIGTERM differs from uninterrupted golden run")
			}
		})
	}
}

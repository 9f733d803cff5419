package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ntdts/internal/config"
)

// runCapture invokes run with captured stdout/stderr.
func runCapture(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	var ob, eb bytes.Buffer
	err = run(args, &ob, &eb)
	return ob.String(), eb.String(), err
}

func TestGenerateSingleFunction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "faults.lst")
	_, stderr, err := runCapture(t, "-function", "CreateProcessA", "-out", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr, "30 faults over 1 functions") {
		t.Fatalf("summary line missing:\n%s", stderr)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	specs, err := config.ParseFaultList(f)
	if err != nil {
		t.Fatal(err)
	}
	// CreateProcessA has 10 parameters * 3 fault types.
	if len(specs) != 30 {
		t.Fatalf("%d specs, want 30", len(specs))
	}
	for _, s := range specs {
		if s.Function != "CreateProcessA" || s.Invocation != 1 {
			t.Fatalf("spec %+v", s)
		}
	}
}

func TestGenerateFullCatalog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "all.lst")
	if _, _, err := runCapture(t, "-out", path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(string(data), "\n")
	// 551 injectable functions, at least one fault each, plus header.
	if lines < 552 {
		t.Fatalf("%d lines, want > 552", lines)
	}
}

// TestGenerateToStdout: without -out the list goes to stdout and the
// summary stays on stderr, so `faultgen > faults.lst` produces a clean
// parseable file.
func TestGenerateToStdout(t *testing.T) {
	stdout, stderr, err := runCapture(t, "-function", "ReadFile")
	if err != nil {
		t.Fatal(err)
	}
	specs, err := config.ParseFaultList(strings.NewReader(stdout))
	if err != nil {
		t.Fatalf("stdout is not a parseable fault list: %v\n%s", err, stdout)
	}
	// ReadFile has 5 parameters * 3 fault types.
	if len(specs) != 15 {
		t.Fatalf("%d specs, want 15", len(specs))
	}
	if strings.Contains(stdout, "faultgen:") {
		t.Fatal("summary line leaked onto stdout")
	}
	if !strings.Contains(stderr, "15 faults over 1 functions") {
		t.Fatalf("summary missing from stderr:\n%s", stderr)
	}
}

// TestGenerateOutputFormat: every emitted line is either a comment or a
// four-field spec whose type is one of the paper's three corruptions.
func TestGenerateOutputFormat(t *testing.T) {
	stdout, _, err := runCapture(t, "-function", "WriteFile")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSuffix(stdout, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 4 {
			t.Fatalf("line %q has %d fields, want 4", line, len(fields))
		}
		switch fields[3] {
		case "zero", "ones", "flip":
		default:
			t.Fatalf("line %q has unknown fault type %q", line, fields[3])
		}
	}
}

func TestGenerateUnknownFunction(t *testing.T) {
	if _, _, err := runCapture(t, "-function", "NotARealExport"); err == nil {
		t.Fatal("unknown function accepted")
	}
}

// TestGenerateParamlessFunction: zero-parameter exports are not
// injectable, so selecting one is an error rather than an empty file.
func TestGenerateParamlessFunction(t *testing.T) {
	_, _, err := runCapture(t, "-function", "GetLastError")
	if err == nil || !strings.Contains(err.Error(), "no injectable") {
		t.Fatalf("param-less function returned %v, want no-entries error", err)
	}
}

func TestGenerateBadOutPath(t *testing.T) {
	_, _, err := runCapture(t, "-out", filepath.Join(t.TempDir(), "no", "such", "dir", "f.lst"))
	if err == nil {
		t.Fatal("unwritable -out accepted")
	}
}

// TestGenerateBadFlag: flag errors surface as errors (with usage on the
// supplied stderr), not os.Exit.
func TestGenerateBadFlag(t *testing.T) {
	out := filepath.Join(t.TempDir(), "fg.lst")
	for _, c := range []struct {
		args       []string
		wantErr    string
		wantStderr string // the usage text, for flag-package errors
	}{
		{[]string{"-nonsense"}, "flag provided but not defined", "-function"},
		// The flag package stops at "stray", so -out would be dropped
		// and the list written to stdout.
		{[]string{"stray", "-out", out}, `unexpected argument "stray"`, ""},
	} {
		stdout, stderr, err := runCapture(t, c.args...)
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%v: err = %v, want %q", c.args, err, c.wantErr)
		}
		if !strings.Contains(stderr, c.wantStderr) {
			t.Errorf("%v: usage not written to stderr:\n%s", c.args, stderr)
		}
		if stdout != "" {
			t.Errorf("%v: rejected invocation wrote a fault list", c.args)
		}
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("rejected invocation created %s (stat err %v)", out, err)
	}
}

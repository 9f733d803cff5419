// Command faultgen generates a DTS fault list file from the KERNEL32
// export catalog: every parameter of every injectable export with the
// paper's three corruption types.
//
// Usage:
//
//	faultgen [-function NAME] [-out faults.lst]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"ntdts/internal/config"
	"ntdts/internal/ntsim/win32"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "faultgen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("faultgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	function := fs.String("function", "", "restrict to a single function")
	outPath := fs.String("out", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (every flag after it would be ignored)", fs.Arg(0))
	}

	var entries []config.CatalogEntry
	for _, e := range win32.Catalog() {
		if e.Params == 0 {
			continue
		}
		if *function != "" && e.Name != *function {
			continue
		}
		entries = append(entries, config.CatalogEntry{Name: e.Name, Params: e.Params})
	}
	if len(entries) == 0 {
		return fmt.Errorf("no injectable catalog entries matched")
	}
	specs := config.GenerateFaultList(entries)

	out := stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if err := config.WriteFaultList(out, specs); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "faultgen: %d faults over %d functions\n", len(specs), len(entries))
	return nil
}

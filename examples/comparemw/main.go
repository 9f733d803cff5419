// comparemw reproduces the paper's Figure 2 campaign: every workload
// (Apache1, Apache2, IIS, SQL) under every fault-tolerance configuration
// (stand-alone, MSCS, watchd), with the full KERNEL32 fault list injected
// into each, and renders the outcome distributions plus the Table 1
// activation census.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"ntdts/internal/experiments"
	"ntdts/internal/report"
)

func main() {
	cfg := experiments.Config{Progress: func(line string) {
		fmt.Fprintln(os.Stderr, line)
	}}

	table1, err := experiments.RunTable1(context.Background(), cfg)
	if err != nil {
		log.Fatalf("table 1: %v", err)
	}
	fmt.Print(report.Table1(table1), "\n")

	exp, err := experiments.RunFigure2(context.Background(), cfg)
	if err != nil {
		log.Fatalf("figure 2: %v", err)
	}
	fmt.Print(report.Figure2(exp))
	fmt.Print("\n", report.FailureMatrix(exp))
}

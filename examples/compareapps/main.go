// compareapps reproduces §4.2's application comparison: Apache (combined
// Apache1+Apache2, weighted by activated faults) against IIS — the paper's
// Figure 3 outcome distributions, Table 2 common-fault comparison, and
// Figure 4 response times with 95% confidence intervals.
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
	exp, err := experiments.RunFigure2(context.Background(), cfg)
	if err != nil {
		log.Fatalf("campaign: %v", err)
	}

	rows, err := experiments.Figure3(exp)
	if err != nil {
		log.Fatalf("figure 3: %v", err)
	}
	fmt.Print(report.Figure3(rows), "\n")

	t2, err := experiments.Table2(exp)
	if err != nil {
		log.Fatalf("table 2: %v", err)
	}
	fmt.Print(report.Table2(t2), "\n")

	cells, err := experiments.Figure4(exp)
	if err != nil {
		log.Fatalf("figure 4: %v", err)
	}
	fmt.Print(report.Figure4(cells))
}

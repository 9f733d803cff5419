// watchdevolution reproduces §4.3: the iterative improvement of watchd
// from Watchd1 to Watchd3, driven by studying the specific faults that
// produced failure outcomes — the paper's core "fault injection as
// debugging feedback" workflow. It renders Figure 5 and then, for each
// version, the concrete coverage holes DTS identified.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"ntdts/internal/core"
	"ntdts/internal/experiments"
	"ntdts/internal/middleware/watchd"
	"ntdts/internal/report"
)

func main() {
	cfg := experiments.Config{Progress: func(line string) {
		fmt.Fprintln(os.Stderr, line)
	}}
	res, err := experiments.RunFigure5(context.Background(), cfg)
	if err != nil {
		log.Fatalf("figure 5: %v", err)
	}
	fmt.Print(report.Figure5(res), "\n")

	fmt.Println("Coverage holes found per iteration (the paper's §4.3 feedback loop):")
	fmt.Println()
	for _, v := range []watchd.Version{watchd.V1, watchd.V2, watchd.V3} {
		set, ok := res.Find(v, "IIS")
		if !ok {
			continue
		}
		fmt.Print(report.TopFailures(set, 8), "\n")
	}

	// The study step itself: which faults each iteration recovered (or
	// broke), fault by fault.
	for _, wl := range experiments.Figure5Workloads() {
		v1, _ := res.Find(watchd.V1, wl)
		v2, _ := res.Find(watchd.V2, wl)
		v3, _ := res.Find(watchd.V3, wl)
		fmt.Print(report.Transitions(wl+"/Watchd1", wl+"/Watchd2", core.DiffSets(v1, v2), 6), "\n")
		fmt.Print(report.Transitions(wl+"/Watchd2", wl+"/Watchd3", core.DiffSets(v2, v3), 6), "\n")
	}

	fmt.Println("Interpretation:")
	fmt.Println("  Watchd1 loses the service handle when the process dies between")
	fmt.Println("  startService() and getServiceInfo(); Watchd2 merges the two calls,")
	fmt.Println("  recovering most early deaths; Watchd3 validates the handle and")
	fmt.Println("  retries with SCM confirmation, closing the remaining start races.")
}

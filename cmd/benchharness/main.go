// Command benchharness regenerates every experiment in EXPERIMENTS.md:
// the paper's §6.1 measurements, the §7 announced evaluations, and the
// §6.2 design ablations. It prints paper-claim vs measured rows and exits
// non-zero if any claim's shape fails to hold.
//
// Usage:
//
//	benchharness            # run everything at full size
//	benchharness -quick     # reduced parameters (CI-sized)
//	benchharness -run E4,E5 # a subset
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"discover/internal/experiments"
	"discover/internal/telemetry"
)

type experiment struct {
	id  string
	run func(quick bool) (experiments.Result, error)
}

var all = []experiment{
	{"E1", func(q bool) (experiments.Result, error) {
		if q {
			return experiments.RunE1([]int{10, 41}, 200*time.Millisecond)
		}
		return experiments.RunE1([]int{10, 20, 41, 80}, time.Second)
	}},
	{"E2", func(q bool) (experiments.Result, error) {
		if q {
			return experiments.RunE2([]int{5, 20}, 300*time.Millisecond)
		}
		return experiments.RunE2([]int{5, 10, 20, 40}, time.Second)
	}},
	{"E3", func(q bool) (experiments.Result, error) {
		if q {
			return experiments.RunE3(500)
		}
		return experiments.RunE3(3000)
	}},
	{"E4", func(q bool) (experiments.Result, error) {
		if q {
			return experiments.RunE4([]int{4}, 10, 40*time.Millisecond)
		}
		return experiments.RunE4([]int{2, 4, 8}, 20, 40*time.Millisecond)
	}},
	{"E5", func(q bool) (experiments.Result, error) {
		if q {
			return experiments.RunE5(10, 40*time.Millisecond)
		}
		return experiments.RunE5(30, 40*time.Millisecond)
	}},
	{"E6", func(q bool) (experiments.Result, error) {
		if q {
			return experiments.RunE6(100)
		}
		return experiments.RunE6(1000)
	}},
	{"E7", func(q bool) (experiments.Result, error) {
		if q {
			return experiments.RunE7(9, 8)
		}
		return experiments.RunE7(24, 15)
	}},
	{"E8", func(q bool) (experiments.Result, error) {
		if q {
			return experiments.RunE8(800, 32)
		}
		return experiments.RunE8(5000, 64)
	}},
	{"E9", func(q bool) (experiments.Result, error) {
		if q {
			return experiments.RunE9(10, 40*time.Millisecond)
		}
		return experiments.RunE9(30, 40*time.Millisecond)
	}},
	{"A1", func(q bool) (experiments.Result, error) {
		if q {
			return experiments.RunA1(1000)
		}
		return experiments.RunA1(20000)
	}},
	{"A2", func(q bool) (experiments.Result, error) {
		if q {
			return experiments.RunA2(5000)
		}
		return experiments.RunA2(100000)
	}},
	{"A3", func(q bool) (experiments.Result, error) {
		if q {
			return experiments.RunA3(5, 80*time.Millisecond, 20*time.Millisecond)
		}
		return experiments.RunA3(15, 100*time.Millisecond, 20*time.Millisecond)
	}},
	{"R1", func(q bool) (experiments.Result, error) {
		if q {
			return experiments.RunR1(5 * time.Millisecond)
		}
		return experiments.RunR1(20 * time.Millisecond)
	}},
	{"R2", func(q bool) (experiments.Result, error) {
		if q {
			return experiments.RunR2("", 24)
		}
		return experiments.RunR2("", 120)
	}},
	{"P1", func(q bool) (experiments.Result, error) {
		if q {
			return experiments.RunP1([]int{2, 8}, 20*time.Millisecond)
		}
		return experiments.RunP1([]int{2, 4, 8}, 20*time.Millisecond)
	}},
	{"O1", func(q bool) (experiments.Result, error) {
		if q {
			return experiments.RunO1(20 * time.Millisecond)
		}
		return experiments.RunO1(40 * time.Millisecond)
	}},
	{"S1", func(bool) (experiments.Result, error) { return experiments.RunS1() }},
	{"S2", func(q bool) (experiments.Result, error) {
		if q {
			return experiments.RunS2(5000, 100*time.Millisecond, 1500*time.Millisecond)
		}
		return experiments.RunS2(100000, time.Second, 15*time.Second)
	}},
	{"W1", func(q bool) (experiments.Result, error) {
		if q {
			return experiments.RunW1(500, 1<<20)
		}
		return experiments.RunW1(3000, 2<<20)
	}},
	{"C1", func(q bool) (experiments.Result, error) {
		if q {
			return experiments.RunC1(200)
		}
		return experiments.RunC1(1000)
	}},
}

// benchReport is the shape of the -json output file: every experiment's
// rows plus a snapshot of all latency histograms, counters (including
// the edge's shed and FIFO-overflow totals), and gauges the run
// populated (the same data GET /metrics exports, in JSON).
type benchReport struct {
	Generated  string                        `json:"generated"`
	Quick      bool                          `json:"quick"`
	Results    []experiments.Result          `json:"results"`
	Histograms []telemetry.HistogramSnapshot `json:"histograms"`
	Counters   []telemetry.CounterSnapshot   `json:"counters"`
	Gauges     []telemetry.GaugeSnapshot     `json:"gauges"`
}

func main() {
	quick := flag.Bool("quick", false, "reduced parameters")
	runList := flag.String("run", "", "comma-separated experiment ids (default: all)")
	jsonOut := flag.String("json", "", "write results and histogram summaries to this file (e.g. BENCH_run.json)")
	flag.Parse()

	selected := map[string]bool{}
	if *runList != "" {
		for _, id := range strings.Split(*runList, ",") {
			selected[strings.TrimSpace(strings.ToUpper(id))] = true
		}
	}

	failures := 0
	var results []experiments.Result
	for _, e := range all {
		if len(selected) > 0 && !selected[e.id] {
			continue
		}
		start := time.Now()
		res, err := e.run(*quick)
		if err != nil {
			fmt.Printf("== %s FAILED TO RUN: %v\n\n", e.id, err)
			failures++
			continue
		}
		results = append(results, res)
		fmt.Printf("== %s: %s  (%s)\n", res.ID, res.Title, time.Since(start).Round(time.Millisecond))
		for _, row := range res.Rows {
			status := "PASS"
			if !row.Pass {
				status = "FAIL"
				failures++
			}
			fmt.Printf("   [%s] %s\n", status, row.Name)
			fmt.Printf("         paper   : %s\n", row.Paper)
			fmt.Printf("         measured: %s\n", row.Measured)
		}
		fmt.Println()
	}
	if *jsonOut != "" {
		report := benchReport{
			Generated:  time.Now().UTC().Format(time.RFC3339),
			Quick:      *quick,
			Results:    results,
			Histograms: telemetry.DefaultRegistry().Snapshots(),
			Counters:   telemetry.DefaultRegistry().CounterSnapshots(),
			Gauges:     telemetry.DefaultRegistry().GaugeSnapshots(),
		}
		data, err := json.MarshalIndent(report, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Printf("benchharness: writing %s: %v\n", *jsonOut, err)
			failures++
		} else {
			fmt.Printf("benchharness: wrote %s (%d histograms)\n", *jsonOut, len(report.Histograms))
		}
		// R2's compact durability record rides along whenever R2 ran.
		if snap, ok := experiments.R2LastSnapshot(); ok {
			data, err := json.MarshalIndent(snap, "", "  ")
			if err == nil {
				err = os.WriteFile("BENCH_R2.json", append(data, '\n'), 0o644)
			}
			if err != nil {
				fmt.Printf("benchharness: writing BENCH_R2.json: %v\n", err)
				failures++
			} else {
				fmt.Println("benchharness: wrote BENCH_R2.json")
			}
		}
		// S2's compact scaling record rides along whenever S2 ran.
		if snap, ok := experiments.S2LastSnapshot(); ok {
			data, err := json.MarshalIndent(snap, "", "  ")
			if err == nil {
				err = os.WriteFile("BENCH_S2.json", append(data, '\n'), 0o644)
			}
			if err != nil {
				fmt.Printf("benchharness: writing BENCH_S2.json: %v\n", err)
				failures++
			} else {
				fmt.Println("benchharness: wrote BENCH_S2.json")
			}
		}
		// W1's compact wire-protocol record rides along whenever W1 ran.
		if snap, ok := experiments.W1LastSnapshot(); ok {
			data, err := json.MarshalIndent(snap, "", "  ")
			if err == nil {
				err = os.WriteFile("BENCH_W1.json", append(data, '\n'), 0o644)
			}
			if err != nil {
				fmt.Printf("benchharness: writing BENCH_W1.json: %v\n", err)
				failures++
			} else {
				fmt.Println("benchharness: wrote BENCH_W1.json")
			}
		}
		// C1's compact replicated-collaboration record rides along
		// whenever C1 ran.
		if snap, ok := experiments.C1LastSnapshot(); ok {
			data, err := json.MarshalIndent(snap, "", "  ")
			if err == nil {
				err = os.WriteFile("BENCH_C1.json", append(data, '\n'), 0o644)
			}
			if err != nil {
				fmt.Printf("benchharness: writing BENCH_C1.json: %v\n", err)
				failures++
			} else {
				fmt.Println("benchharness: wrote BENCH_C1.json")
			}
		}
	}
	if failures > 0 {
		fmt.Printf("benchharness: %d failures\n", failures)
		os.Exit(1)
	}
	fmt.Println("benchharness: all experiment shapes hold")
}

// Command fedbench is the repository's end-to-end benchmark. It boots a
// DISCOVER federation (a trader, domains started through the discover
// facade, and seismic applications over loopback TCP) in a child process,
// drives one workload against it from an open-loop load generator in
// this process, checks the outputs, and prints its metrics.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash fedbench/run.sh --workload steer --seed 1 --seconds 20 --trace 0
//
// Workloads are steer, broadcast and churn. With --trace 0 it prints the
// end-to-end metrics; with --trace 1 the per-layer metrics of a traced
// window, and the tracing overhead against the plain windows run around
// it. The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. Exit status is 0 on a correct, valid
// run, 1 on an error or a failed output check, and 3 when the run is
// invalid (the generator could not keep its schedule, the host stole too
// much CPU time in every attempt, or too few samples for a p99). See
// NOTES.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// deadline bounds one invocation; the federation is killed past it.
const deadline = 175 * time.Second

func main() {
	workloadName := flag.String("workload", "", "workload: steer, broadcast or churn")
	seed := flag.Int64("seed", 1, "seed for the generated inputs")
	seconds := flag.Int("seconds", 20, "measured seconds (a traced run splits them between a plain and a traced window)")
	traceFlag := flag.Int("trace", 0, "1 for the traced run and per-layer metrics")
	serve := flag.Bool("serve", false, "internal: run as the federation process")
	shape := flag.String("shape", "", "internal: federation shape (JSON)")
	dir := flag.String("dir", "", "internal: data directory for durable domains")
	flag.Parse()
	if *serve {
		os.Exit(serveFederation(*shape, *dir, *traceFlag == 1))
	}
	if _, ok := newWorkload(*workloadName, 1); !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: fedbench --workload steer|broadcast|churn --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	// The generator allocates per received event; collecting less often
	// keeps its own pauses out of the latencies it measures. The
	// federation process keeps the default.
	debug.SetGCPercent(400)
	time.AfterFunc(deadline, func() {
		if p := liveFed.Load(); p != nil {
			p.kill()
		}
		fmt.Fprintln(os.Stderr, "fedbench: run exceeded", deadline)
		os.Exit(1)
	})
	os.Exit(report(*workloadName, *seed, *seconds, *traceFlag == 1))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func report(name string, seed int64, seconds int, trace bool) int {
	res, wl, err := runBench(name, seed, seconds, trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedbench:", err)
		return 1
	}
	plain := res.plain
	pe := endToEndOf(plain)
	r := plain.rec
	setup := median(append([]float64(nil), res.setupS...))

	prov := map[string]any{
		"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
		"commit": commit(), "go": runtime.Version(), "nproc": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "time": time.Now().UTC().Format(time.RFC3339),
		"params":       wl.params(),
		"setup_s_each": res.setupS,
		"samples": map[string]any{
			"latency": pe.n, "beyond_p99": pe.n - rank(pe.n, 0.99),
			"highest_supported_percentile": highestTail(pe.n),
		},
		"units": map[string]int{
			"attempted": r.attempted, "errored": r.errored, "over_limit": r.overLimit,
			"lost_responses": r.lost, "out_of_order": r.reorders, "ops": r.ops,
		},
		"failed_frac": pe.failedFrac,
		"p99_ms":      pe.p99,
		"errors":      r.errKinds,
		"generator": map[string]any{
			"late_ms_p50": percentile(append([]float64(nil), r.genLate...), 0.5),
			"late_ms_p99": percentile(append([]float64(nil), r.genLate...), 0.99),
			"wakes":       len(r.genLate), "slipped": r.slipped,
			"slip_limit_ms": slipLimit.Milliseconds(), "max_slipped_frac": maxSlipped,
		},
		"output_checks":   map[string]any{"violations": res.checkN, "examples": res.examples},
		"host_steal_frac": res.steal,
		"host_steal": map[string]any{
			"each_attempt": res.steals, "remeasure_above": maxSteal, "invalid_above": invalidSteal,
		},
	}
	switch w := wl.(type) {
	case *broadcast:
		prov["app_update_units"] = w.updates
	case *steer:
		prov["lock_renewals"] = map[string]int64{"made": w.renewals.Load(), "failed": w.renewalsFailed.Load()}
	}

	out := resultLine{Correct: res.correct, Attempted: r.attempted, Failed: r.failed(), Metrics: map[string]metricValue{}}
	fmt.Printf("fedbench %s seed=%d window=%ds nproc=%d samples=%d host steal %.1f%%\n",
		name, seed, seconds, runtime.NumCPU(), pe.n, 100*res.steal)
	if !trace {
		vals := map[string]float64{
			"setup_s": setup, "p50_ms": pe.p50,
			"cpu_ms_per_op": pe.cpuPerOp, "rss_mb": plain.rss,
		}
		for _, d := range endToEnd {
			out.Metrics[d.Name] = metricValue{vals[d.Name], d.Unit}
			fmt.Printf("  %-16s %12.4f %s\n", d.Name, vals[d.Name], d.Unit)
		}
		fmt.Printf("  %-16s %12.4f ms     (not bounded; %d samples, %d beyond it)\n",
			"p99_ms", pe.p99, pe.n, pe.n-rank(pe.n, 0.99))
		fmt.Printf("  %-16s %12.6f ratio  (%d of %d: %d failed, %d over %v, %d responses Do lost, %d out of order)\n",
			"failed_frac", pe.failedFrac, r.flawed(), r.attempted, r.failed(), r.overLimit, wl.limit(), r.lost, r.reorders)
	} else {
		traced := res.traced
		te := endToEndOf(traced)
		lm := layerMetrics(plain, traced)
		for _, d := range perLayer {
			out.Metrics[d.Name] = metricValue{lm[d.Name], d.Unit}
			fmt.Printf("  %-36s %14.4f %s\n", d.Name, lm[d.Name], d.Unit)
		}
		fmt.Printf("  tracing overhead: p50 %.4f -> %.4f ms, cpu/op %.4f -> %.4f ms\n",
			pe.p50, te.p50, pe.cpuPerOp, te.cpuPerOp)
		prov["handler_samples"] = routeCounts(traced.child.Handlers)
		prov["phase_samples"] = len(traced.child.PhaseUS)
		prov["traced_window"] = map[string]any{
			"p50_ms": te.p50, "p99_ms": te.p99, "cpu_ms_per_op": te.cpuPerOp, "samples": te.n,
			"failed_frac": te.failedFrac,
		}
		spanFile := resultPath(name, seed, trace, "spans.jsonl")
		if err := os.MkdirAll(filepath.Dir(spanFile), 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "fedbench:", err)
			return 1
		}
		if err := writeSpans(spanFile, traced.spans, traced.child.Handlers); err != nil {
			fmt.Fprintln(os.Stderr, "fedbench: writing spans:", err)
			return 1
		}
		prov["spans_file"] = spanFile
	}
	prov["metrics"] = out.Metrics
	prov["correct"] = res.correct
	if err := writeReport(resultPath(name, seed, trace, "json"), prov); err != nil {
		fmt.Fprintln(os.Stderr, "fedbench: writing report:", err)
		return 1
	}
	pj, _ := json.Marshal(prov)
	fmt.Printf("report %s\n", pj)

	if !res.correct {
		fmt.Fprintf(os.Stderr, "fedbench: %d output check violations, e.g. %v\n", res.checkN, res.examples)
	}
	if invalid := validity(r, pe.n, res.steal, trace); invalid != "" {
		fmt.Fprintln(os.Stderr, "fedbench: run invalid:", invalid)
		return 3
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.correct {
		return 1
	}
	return 0
}

// validity explains why a run's figures cannot be trusted, or returns "".
// A traced run reports no percentile tail, so its sample count is free.
func validity(r *recorder, samples int, steal float64, trace bool) string {
	if r.attempted == 0 {
		return "no units attempted"
	}
	if steal > invalidSteal {
		return fmt.Sprintf("the host stole %.1f%% of the machine's CPU time even in the least disturbed attempt (limit %.0f%%)",
			100*steal, 100*invalidSteal)
	}
	if f := ratio(float64(r.slipped), float64(r.ops)); f > maxSlipped {
		return fmt.Sprintf("generator woke more than %v late for %.1f%% of ops (limit %.0f%%)",
			slipLimit, 100*f, 100*maxSlipped)
	}
	if !trace && samples-rank(samples, 0.99) < minTail {
		return fmt.Sprintf("%d latency samples leave fewer than %d beyond p99", samples, minTail)
	}
	return ""
}

// resultPath names a run's output file under .bench_build/fedbench-results.
func resultPath(name string, seed int64, trace bool, ext string) string {
	t := 0
	if trace {
		t = 1
	}
	return filepath.Join(".bench_build", "fedbench-results", fmt.Sprintf("%s-seed%d-trace%d.%s", name, seed, t, ext))
}

func writeReport(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// commit is the VCS revision the binary was built from, when the build
// could see one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

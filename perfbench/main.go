// Command perfbench is the repository benchmark. It runs one named workload
// through the program's public entry points for a fixed number of host
// seconds, checks every output against pinned or cross-configuration
// results, and prints one JSON result line last.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the traced variant, which times the calls into each layer from this
// package, writes the spans as Chrome trace_event JSON, and reports the
// per-layer metrics. Workloads, layers and predictions: LAYERS.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	"rtsj/internal/harness"
)

func main() {
	if os.Getenv(calibratorEnv) != "" {
		os.Exit(serveCalibration(os.Stdin, os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tiny shrinks every workload's input so the benchmark's own tests run
	// in seconds; pinned outputs then do not apply.
	tiny bool
	// out is the directory the traced run writes its span file into.
	out string
}

// metric is one reported value.
type metric struct {
	name  string
	value float64
	unit  string
}

// report is what one invocation prints: the metrics, the attempted and
// failed unit counts, and human-readable tables printed before the JSON.
type report struct {
	attempted, failed int64
	metrics           []metric
	notes             []string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 0, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "host seconds to measure")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer variant")
	fs.BoolVar(&cfg.tiny, "tiny", false, "shrink every input (for the benchmark's own tests)")
	fs.StringVar(&cfg.out, "out", ".bench_build", "directory for the traced run's span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1 (got %d)\n", *traceFlag)
		return 2
	}
	cfg.trace = *traceFlag == 1
	if cfg.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive\n")
		return 2
	}
	w, ok := workloadByName(cfg.workload)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n",
			cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	// Every workload runs at the program's default parallelism, one harness
	// worker per GOMAXPROCS. The count is set explicitly so that
	// $RTSJ_WORKERS cannot change what is measured.
	harness.SetWorkers(runtime.GOMAXPROCS(0))
	defer harness.SetWorkers(0)
	var rep *report
	var err error
	if cfg.trace {
		rep, err = runTraced(w, cfg)
	} else {
		rep, err = runEndToEnd(w, cfg)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintf(stdout, "workload %s, seed %d, %gs, GOMAXPROCS %d, harness workers %d, trace %v\n",
		w.name, cfg.seed, cfg.seconds, runtime.GOMAXPROCS(0), harness.Workers(), cfg.trace)
	for _, n := range rep.notes {
		fmt.Fprintln(stdout, n)
	}
	errRate := 0.0
	if rep.attempted > 0 {
		errRate = float64(rep.failed) / float64(rep.attempted)
	}
	for _, m := range rep.metrics {
		fmt.Fprintf(stdout, "  %-34s %14.6g %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(stdout, "  %-34s %14.6g %s (%d of %d systems failed)\n",
		"error_rate", errRate, "ratio", rep.failed, rep.attempted)
	fmt.Fprintln(stdout, resultJSON(rep))
	return 0
}

// resultJSON renders the final result line, metrics in report order.
func resultJSON(rep *report) string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct": %v, "attempted": %d, "failed": %d, "metrics": {`,
		rep.failed == 0 && rep.attempted > 0, rep.attempted, rep.failed)
	for i, m := range rep.metrics {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, `%q: {"value": %s, "unit": %q}`, m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
	}
	b.WriteString("}}")
	return b.String()
}

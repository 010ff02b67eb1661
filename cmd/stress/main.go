// Command stress runs the executive's two large-N workloads:
//
// The sporadic scenario (default) releases thousands to tens of thousands
// of one-shot sporadic job threads plus periodic background load,
// exercising the direct kernel's worker pool, which bounds the OS-level
// goroutine count by the preemption depth instead of the thread count.
//
// The steady scenario (-scenario steady) runs thousands to tens of
// thousands of long-running periodic entities, exercising the
// activation-driven dispatch path (exec.SpawnPeriodic) that removes the
// last per-entity goroutine: entities own no goroutine between releases,
// so the whole system runs on a pool-sized worker set.
//
// Usage:
//
//	stress [-scenario sporadic|steady] [-n 10000] [-maxgoroutines 64]
//	       [-kernel direct|channel] [-activation] [-background 4] [-cpus 4]
//	       [-bands 6] [-seed 2007] [-faults 'seed=1 drop=0.05'] [-quiet]
//	       [-stats] [-perfetto out.json] [-debug-addr 127.0.0.1:6060]
//
// -stats prints the executive's obs snapshot (context switches, heap
// high-water marks, pool churn) after the run; -perfetto records the
// schedule and exports it as Chrome trace-event JSON; -debug-addr serves
// /debug/pprof and /debug/vars (with the same snapshot under "obs") while
// the run executes. All three are observational: the summary lines and
// the fingerprint are identical with or without them.
//
// -maxgoroutines sets how many pool workers stay resident once free (0 is
// the default outside this command); the schedule is identical for every
// value, and -kernel channel runs the one-goroutine-per-thread reference
// kernel, which ignores it, to compare footprints. -activation runs the
// periodic entities (steady scenario) or background threads (sporadic
// scenario) on the activation path; -activation=false compares against
// parked periodic loops — again schedule-identical.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"rtsj/internal/exec"
	"rtsj/internal/experiments"
	"rtsj/internal/faults"
	"rtsj/internal/harness"
	"rtsj/internal/obs"
	"rtsj/internal/trace"
)

func main() {
	def := experiments.DefaultStressParams()
	steadyDef := experiments.DefaultSteadyStateParams()
	scenario := flag.String("scenario", "sporadic", "workload: sporadic (one-shot jobs) or steady (periodic entities)")
	n := flag.Int("n", 0, "job count (sporadic) or entity count (steady); 0 = scenario default")
	maxg := flag.Int("maxgoroutines", def.MaxGoroutines, "resident worker-pool size (direct kernel); any value >= 0 schedules identically")
	kernel := flag.String("kernel", "direct", "executive kernel: direct or channel")
	activation := flag.Bool("activation", true, "periodic entities use activation dispatch (no goroutine between releases)")
	background := flag.Int("background", def.Background, "periodic background threads (sporadic scenario)")
	bands := flag.Int("bands", def.PriorityBands, "priority bands for the sporadic jobs")
	horizon := flag.Float64("horizon", steadyDef.HorizonTU, "steady-scenario horizon in time units")
	cpus := flag.Int("cpus", 0, "virtual CPUs for the sporadic scenario (0 = uniprocessor)")
	seed := flag.Uint64("seed", def.Seed, "scenario seed")
	faultsFlag := flag.String("faults", "", "fault plan for the sporadic jobs (e.g. 'seed=1 overrun=0.2:0.5 drop=0.05'); 'off' or empty for none")
	quiet := flag.Bool("quiet", false, "print only the summary line")
	stats := flag.Bool("stats", false, "print the executive's obs stats snapshot after the run")
	perfetto := flag.String("perfetto", "", "record the schedule and write Chrome trace-event JSON (ui.perfetto.dev) to this file")
	debugAddr := flag.String("debug-addr", "", "serve /debug/pprof and /debug/vars on this address during the run")
	flag.Parse()
	plan, err := faults.Parse(*faultsFlag)
	if err != nil {
		fatal(fmt.Errorf("-faults: %v", err))
	}

	var kind exec.Kernel
	switch *kernel {
	case "direct":
		kind = exec.DirectKernel
	case "channel":
		kind = exec.ChannelKernel
	default:
		fatal(fmt.Errorf("unknown kernel %q (want direct or channel)", *kernel))
	}
	if *n < 0 || *background < 0 || *bands <= 0 || *maxg < 0 || *cpus < 0 {
		fatal(fmt.Errorf("-n, -background, -maxgoroutines and -cpus must be >= 0; -bands must be positive"))
	}
	// Reject flags the selected scenario would silently ignore: a user
	// comparing configurations must not believe a setting took effect when
	// it did not.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	switch *scenario {
	case "steady":
		if set["background"] || set["bands"] || set["faults"] || set["cpus"] {
			fatal(fmt.Errorf("-background, -bands, -faults and -cpus apply only to -scenario sporadic"))
		}
	case "sporadic":
		if set["horizon"] {
			fatal(fmt.Errorf("-horizon applies only to -scenario steady"))
		}
	}

	// The observability layer: an obs registry backs -stats and the
	// /debug/vars snapshot; -perfetto swaps the trace-free fast path for a
	// recording trace. None of it perturbs the schedule (the fingerprint
	// in the summary line pins that).
	var reg *obs.Registry
	var execStats *exec.Stats
	if *stats || *debugAddr != "" {
		reg = obs.NewRegistry()
		execStats = exec.NewStats(reg)
		harness.SetStats(harness.NewStats(reg))
		reg.Publish("obs")
	}
	if *debugAddr != "" {
		addr, err := obs.ServeDebug(*debugAddr)
		if err != nil {
			fatal(fmt.Errorf("-debug-addr: %v", err))
		}
		fmt.Fprintf(os.Stderr, "stress: debug endpoint on http://%s/debug/\n", addr)
	}
	var tr *trace.Trace
	if *perfetto != "" {
		tr = trace.New()
	}

	switch *scenario {
	case "sporadic":
		p := experiments.StressParams{
			Jobs:               def.Jobs,
			Background:         *background,
			PriorityBands:      *bands,
			Seed:               *seed,
			Kernel:             kind,
			MaxGoroutines:      *maxg,
			PeriodicActivation: *activation,
			Faults:             plan,
			CPUs:               *cpus,
			Stats:              execStats,
		}
		if tr != nil {
			p.Sink = tr
		}
		if *n > 0 {
			p.Jobs = *n
		}
		runSporadic(p, *quiet)
	case "steady":
		p := experiments.SteadyStateParams{
			Entities:      steadyDef.Entities,
			HorizonTU:     *horizon,
			Utilization:   steadyDef.Utilization,
			Seed:          *seed,
			Kernel:        kind,
			MaxGoroutines: *maxg,
			Activation:    *activation,
			Stats:         execStats,
		}
		if tr != nil {
			p.Sink = tr
		}
		if *n > 0 {
			p.Entities = *n
		}
		runSteady(p, *quiet)
	default:
		fatal(fmt.Errorf("unknown scenario %q (want sporadic or steady)", *scenario))
	}

	if *perfetto != "" {
		f, err := os.Create(*perfetto)
		if err != nil {
			fatal(err)
		}
		if err := tr.WritePerfetto(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if *stats {
		fmt.Print(reg.Format())
	}
}

func runSporadic(p experiments.StressParams, quiet bool) {
	goroutinesBefore := runtime.NumGoroutine()
	start := time.Now()
	res, err := experiments.RunStress(p)
	elapsed := time.Since(start)
	if err != nil {
		fatal(err)
	}
	if !quiet {
		fmt.Printf("scenario : %d jobs over %d bands, %d background threads (activation=%v), seed %d\n",
			res.Jobs, p.PriorityBands, p.Background, p.PeriodicActivation, p.Seed)
		cpus := p.CPUs
		if cpus < 1 {
			cpus = 1
		}
		fmt.Printf("executive: %s kernel, maxgoroutines=%d, cpus=%d\n", p.Kernel, p.MaxGoroutines, cpus)
		fmt.Printf("completed: %d/%d jobs (%d dropped by faults), %d background activations\n",
			res.Completed, res.Jobs, res.Dropped, res.BackgroundRun)
		fmt.Printf("virtual  : consumed %v, finished at %v of %v horizon\n",
			res.TotalConsumed, res.FinalTime, res.Horizon)
		fmt.Printf("pool     : peak %d workers (goroutines before run: %d)\n",
			res.PeakWorkers, goroutinesBefore)
		fmt.Printf("wall     : %v (%.0f jobs/s)\n", elapsed.Round(time.Millisecond),
			float64(res.Completed)/elapsed.Seconds())
	}
	fmt.Printf("stress: %d jobs, kernel=%s maxgoroutines=%d peak-workers=%d fingerprint=%016x wall=%v\n",
		res.Completed, p.Kernel, p.MaxGoroutines, res.PeakWorkers, res.Fingerprint,
		elapsed.Round(time.Millisecond))
	if res.Completed != res.Jobs-res.Dropped {
		// The CI stress smoke relies on this: stranded jobs are a
		// scheduling bug, not a soft statistic.
		fatal(fmt.Errorf("only %d of %d spawned jobs completed", res.Completed, res.Jobs-res.Dropped))
	}
}

func runSteady(p experiments.SteadyStateParams, quiet bool) {
	goroutinesBefore := runtime.NumGoroutine()
	start := time.Now()
	res, err := experiments.RunPeriodicSteadyState(p)
	elapsed := time.Since(start)
	if err != nil {
		fatal(err)
	}
	if !quiet {
		fmt.Printf("scenario : %d periodic entities, horizon %gtu, utilization %g, seed %d\n",
			res.Entities, p.HorizonTU, p.Utilization, p.Seed)
		fmt.Printf("executive: %s kernel, maxgoroutines=%d, activation=%v\n",
			p.Kernel, p.MaxGoroutines, p.Activation)
		fmt.Printf("released : %d activations (%d missed)\n", res.Activations, res.Missed)
		fmt.Printf("virtual  : consumed %v, finished at %v of %v horizon\n",
			res.TotalConsumed, res.FinalTime, res.Horizon)
		fmt.Printf("pool     : peak %d workers (goroutines before run: %d)\n",
			res.PeakWorkers, goroutinesBefore)
		fmt.Printf("wall     : %v (%.0f activations/s)\n", elapsed.Round(time.Millisecond),
			float64(res.Activations)/elapsed.Seconds())
	}
	fmt.Printf("steady: %d entities %d activations, kernel=%s maxgoroutines=%d activation=%v peak-workers=%d fingerprint=%016x wall=%v\n",
		res.Entities, res.Activations, p.Kernel, p.MaxGoroutines, p.Activation,
		res.PeakWorkers, res.Fingerprint, elapsed.Round(time.Millisecond))
	if res.Activations < res.Entities {
		// Every entity must release at least once within the horizon.
		fatal(fmt.Errorf("only %d activations for %d entities", res.Activations, res.Entities))
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "stress: %v\n", err)
	os.Exit(1)
}

// Command scenarios regenerates the paper's worked examples and the
// robustness overload family.
//
// The default family ("figures") renders the Table 1 task set under the
// three firing scenarios of Figures 2-4 as ASCII temporal diagrams: the
// framework execution (what the figures depict) and the ideal
// literature-policy simulation the paper contrasts in the text.
//
// The "overload" family runs the deterministic overload scenarios
// (internal/experiments.RunOverload): miss-storm, transient and
// saturation. It exits non-zero if any invariant is violated or if the
// miss-storm's hard periodic set misses a deadline — the graceful-
// degradation property CI smokes with a 10k-event burst.
//
// The "campaign" family runs the stock utilization-sweep campaign
// in-process through the streaming reducer (-n overrides systems per point,
// -seed the generation seed) and prints the schedulability curve; the
// sharded front-end lives in cmd/tables -campaign.
//
// The "smp" family runs the multiprocessor scenario sweeps
// (internal/experiments.RunSMP) on -cpus virtual CPUs: the
// global-vs-partitioned-vs-clustered EDF/FP deadline-miss curves and the
// migration-cost sweep. Results are deterministic fingerprinted schedules;
// the command exits non-zero on any executive invariant violation.
package main

import (
	"flag"
	"fmt"
	"os"

	"rtsj/internal/exec"
	"rtsj/internal/experiments"
	"rtsj/internal/faults"
	"rtsj/internal/harness"
)

func main() {
	family := flag.String("family", "figures", "scenario family: figures | overload | campaign | smp")
	scenario := flag.String("scenario", "", "scenario to run: figures 1-3, overload miss-storm|transient|saturation, smp miss-curve|migration-sweep; empty for all")
	ideal := flag.Bool("ideal", true, "figures: also show the ideal (literature) polling server schedule")
	workers := flag.Int("workers", 0, "harness worker pool size (0: $RTSJ_WORKERS or GOMAXPROCS)")
	events := flag.Int("n", 0, "overload: approximate event count; campaign: systems per point (0: default)")
	seed := flag.Int64("seed", 0, "overload/campaign: workload seed (0: default)")
	faultsFlag := flag.String("faults", "", "overload: extra fault plan (e.g. 'seed=1 overrun=0.3:0.5'); 'off' or empty for none")
	pooled := flag.Int("pooled", 0, "overload/smp: resident worker-pool size of the executive (never changes a schedule)")
	activation := flag.Bool("activation", false, "overload: activation-driven periodic dispatch")
	quiet := flag.Bool("quiet", false, "overload/smp: one summary line per scenario")
	progress := flag.Bool("progress", false, "campaign: report live progress (systems/s, ETA) on stderr")
	cpus := flag.Int("cpus", 4, "smp: virtual CPU count")
	flag.Parse()
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "scenarios: -workers must be >= 0 (got %d)\n", *workers)
		os.Exit(2)
	}
	harness.SetWorkers(*workers)

	switch *family {
	case "figures":
		n := 0
		if *scenario != "" {
			if _, err := fmt.Sscanf(*scenario, "%d", &n); err != nil || n < 1 || n > 3 {
				fmt.Fprintf(os.Stderr, "scenarios: figures scenario must be 1-3 (got %q)\n", *scenario)
				os.Exit(2)
			}
		}
		runFigures(n, *ideal)
	case "overload":
		runOverload(*scenario, *events, *seed, *faultsFlag, *pooled, *activation, *quiet)
	case "campaign":
		runCampaign(*events, *seed, *progress)
	case "smp":
		runSMP(*scenario, *cpus, *pooled, *activation, *quiet)
	default:
		fmt.Fprintf(os.Stderr, "scenarios: unknown family %q (want figures, overload, campaign or smp)\n", *family)
		os.Exit(2)
	}
}

func runFigures(n int, ideal bool) {
	nums := []int{1, 2, 3}
	if n != 0 {
		nums = []int{n}
	}
	fmt.Println("Task set (Table 1): PS(prio hi, C=3, T=6), tau1(med, C=2, T=6), tau2(lo, C=1, T=6)")
	fmt.Println("Handlers: h1 cost 2, h2 cost 2 (scenario 3: declared 1, actual 2)")
	fmt.Println()
	figs, err := experiments.RunFigures(nums...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scenarios: %v\n", err)
		os.Exit(1)
	}
	for i, num := range nums {
		fig := figs[i]
		fmt.Printf("=== Scenario %d (Figure %d) ===\n", num, num+1)
		fmt.Printf("e1 fired at %v, e2 at %v — %s\n\n", fig.Scenario.Fire1, fig.Scenario.Fire2, fig.Scenario.Caption)
		fmt.Println("Framework execution:")
		fmt.Println(fig.ExecGantt)
		if ideal {
			fmt.Println("Ideal polling server (RTSS simulation):")
			fmt.Println(fig.IdealGantt)
		}
		for _, e := range fig.Events {
			fmt.Println("  " + e)
		}
		fmt.Println()
	}
}

// runCampaign streams the stock utilization sweep in-process and prints
// the resulting schedulability curve.
func runCampaign(systems int, seed int64, progress bool) {
	spec := experiments.DefaultCampaignSpec()
	if systems > 0 {
		spec.Systems = systems
	}
	if seed != 0 {
		spec.Seed = seed
	}
	var opts experiments.CampaignOptions
	if progress {
		opts.Progress = os.Stderr
	}
	curve, err := experiments.RunCampaignOpts(spec, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scenarios: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(curve.Format())
}

func runOverload(scenario string, events int, seed int64, faultsFlag string, pooled int, activation bool, quiet bool) {
	plan, err := faults.Parse(faultsFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scenarios: -faults: %v\n", err)
		os.Exit(2)
	}
	names := experiments.OverloadScenarios()
	if scenario != "" {
		names = []string{scenario}
	}
	failed := false
	for _, name := range names {
		p := experiments.DefaultOverloadParams(name)
		p.Events = events
		p.Seed = seed
		p.Faults = plan
		p.Kernel = exec.DirectKernel
		p.MaxGoroutines = pooled
		p.PeriodicActivation = activation
		r, err := experiments.RunOverload(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scenarios: %s: %v\n", name, err)
			os.Exit(1)
		}
		if quiet {
			fmt.Printf("%-11s events=%d served=%d interrupted=%d shed=%d pending=%d periodic=%d/%d-missed floor=%v fp=%#x\n",
				name, r.Events, r.Served, r.Interrupted, r.Shed, r.Pending,
				r.PeriodicReleases, r.PeriodicMisses, r.CapacityFloor, r.Fingerprint)
		} else {
			fmt.Printf("=== Overload scenario %q ===\n", name)
			fmt.Printf("aperiodics: %d generated, %d released, %d served, %d interrupted, %d shed, %d pending at horizon\n",
				r.Events, r.Released, r.Served, r.Interrupted, r.Shed, r.Pending)
			fmt.Printf("hard periodics: %d releases, %d deadline misses\n", r.PeriodicReleases, r.PeriodicMisses)
			fmt.Printf("capacity floor: %v  final time: %v  fingerprint: %#x\n", r.CapacityFloor, r.FinalTime, r.Fingerprint)
			fmt.Println()
		}
		// Graceful degradation is the contract: invariants hold and the
		// hard periodic set never misses while the server sheds.
		for _, v := range r.Violations {
			fmt.Fprintf(os.Stderr, "scenarios: %s: INVARIANT: %s\n", name, v)
			failed = true
		}
		if r.PeriodicMisses > 0 {
			fmt.Fprintf(os.Stderr, "scenarios: %s: %d hard periodic deadline misses\n", name, r.PeriodicMisses)
			failed = true
		}
		if name == experiments.OverloadMissStorm && r.Shed == 0 {
			fmt.Fprintf(os.Stderr, "scenarios: %s: shed nothing (storm not overloading)\n", name)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// runSMP sweeps the multiprocessor scenarios over every migration policy
// and scheduler, printing the per-point miss/migration curves (or one
// fingerprinted summary line per configuration with -quiet).
func runSMP(scenario string, cpus, pooled int, activation, quiet bool) {
	names := experiments.SMPScenarios()
	if scenario != "" {
		names = []string{scenario}
	}
	policies := []exec.MigrationPolicy{exec.Global, exec.Partitioned, exec.Clustered}
	failed := false
	for _, name := range names {
		for _, pol := range policies {
			if name == experiments.SMPMigration && pol == exec.Partitioned {
				continue // a partitioned system cannot migrate
			}
			for _, sched := range []string{"fp", "edf"} {
				p := experiments.DefaultSMPParams(name)
				p.CPUs = cpus
				p.Policy = pol
				p.Sched = sched
				p.Kernel = exec.DirectKernel
				p.MaxGoroutines = pooled
				p.PeriodicActivation = activation
				r, err := experiments.RunSMP(p)
				if err != nil {
					fmt.Fprintf(os.Stderr, "scenarios: %s: %v\n", name, err)
					os.Exit(1)
				}
				if quiet {
					fmt.Printf("%-15s m=%d %-11s %-3s releases=%d misses=%d skips=%d migrations=%d fp=%#x\n",
						name, r.CPUs, pol, sched, r.Releases, r.Misses, r.Skips, r.Migrations, r.Fingerprint)
				} else {
					fmt.Printf("=== SMP %s: %d CPUs, %s, %s ===\n", name, r.CPUs, pol, sched)
					for _, pt := range r.Points {
						label := "U/cpu"
						if name == experiments.SMPMigration {
							label = "cost(tu)"
						}
						fmt.Printf("  %s=%-5.2f releases=%-5d misses=%-4d skips=%-4d migrations=%d\n",
							label, pt.Param, pt.Releases, pt.Misses, pt.Skips, pt.Migrations)
					}
					fmt.Printf("  total: %d releases, %d misses, %d migrations  fingerprint: %#x\n\n",
						r.Releases, r.Misses, r.Migrations, r.Fingerprint)
				}
				for _, v := range r.Violations {
					fmt.Fprintf(os.Stderr, "scenarios: %s/%s/%s: INVARIANT: %s\n", name, pol, sched, v)
					failed = true
				}
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}

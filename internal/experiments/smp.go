package experiments

import (
	"fmt"
	"sort"

	"rtsj/internal/exec"
	"rtsj/internal/rtime"
)

// SMP scenario family: the multiprocessor experiments the paper never
// touched, opened up by the executive's M-CPU generalization (exec smp.go).
// Each run schedules a deterministic synthetic periodic task set on M
// virtual CPUs under a migration policy (global / partitioned / clustered)
// and a scheduler (fixed-priority rate-monotonic, or EDF via the
// job-level dynamic-priority hook) and measures deadline misses, skipped
// releases and cross-CPU migrations. Everything is a pure function of the
// parameters, so fingerprints are pinned across the whole
// {kernel} x {dispatch mode} matrix by the SMP tests.

// SMP scenario names.
const (
	// SMPMissCurve sweeps per-CPU utilization and records the deadline
	// miss curve of the configured policy/scheduler — the global-vs-
	// partitioned EDF/FP comparison.
	SMPMissCurve = "miss-curve"
	// SMPMigration fixes the workload and sweeps the per-migration cache
	// penalty (exec.Options.MigrationCost) under the Global policy,
	// recording how misses grow as migrations get more expensive.
	SMPMigration = "migration-sweep"
)

// SMPScenarios lists the scenario family in canonical order.
func SMPScenarios() []string { return []string{SMPMissCurve, SMPMigration} }

// SMPParams configures one SMP run. Everything is derived
// deterministically from Seed, so two runs on any executive configuration
// schedule identically.
type SMPParams struct {
	// Scenario is one of the SMP* names.
	Scenario string
	// CPUs is the virtual CPU count (default 4).
	CPUs int
	// Policy selects the migration policy. The migration sweep requires a
	// policy that can migrate (it rejects Partitioned).
	Policy exec.MigrationPolicy
	// Sched selects the scheduler: "fp" (rate-monotonic fixed priorities)
	// or "edf" (job-level dynamic priorities by absolute deadline).
	Sched string
	// Tasks is the periodic task count (default 12).
	Tasks int
	// Seed drives periods, utilization shares and the affinity packing.
	Seed uint64
	// HorizonTU is the observation window in time units (default 400).
	HorizonTU float64
	// MigrationCost is the per-migration penalty charged to a mid-consume
	// thread resuming on a new CPU (the migration sweep overrides it per
	// point).
	MigrationCost rtime.Duration
	// Kernel, MaxGoroutines and PeriodicActivation configure the
	// executive, exactly as in ExecModel. PeriodicActivation runs the
	// tasks as activation entities (exec.SpawnPeriodicOn); otherwise they
	// are looping threads replicating the same kernel-call sequence.
	Kernel             exec.Kernel
	MaxGoroutines      int  // resident worker-pool size (direct kernel)
	PeriodicActivation bool // activation-driven periodic dispatch
}

// DefaultSMPParams returns the canonical configuration of a scenario (the
// one whose fingerprint the SMP tests pin across the executive matrix).
func DefaultSMPParams(scenario string) SMPParams {
	return SMPParams{
		Scenario:  scenario,
		CPUs:      4,
		Tasks:     12,
		Seed:      2007,
		HorizonTU: 400,
	}
}

// SMPPoint is one point of a sweep: the swept parameter (per-CPU
// utilization for the miss curve, migration cost in time units for the
// migration sweep) and the counters measured there.
type SMPPoint struct {
	Param      float64 // utilization per CPU, or migration cost in tu
	Releases   int     // completed releases
	Misses     int     // completions past their implicit deadline
	Skips      int     // releases skipped by overruns
	Migrations int     // cross-CPU thread migrations
}

// SMPResult summarizes one SMP run (the whole sweep).
type SMPResult struct {
	Scenario string               // scenario name the run came from
	CPUs     int                  // virtual CPU count
	Policy   exec.MigrationPolicy // migration policy
	Sched    string               // "fp" or "edf"
	Points   []SMPPoint           // the sweep, in parameter order
	// Releases totals the sweep's completed releases.
	Releases int
	// Misses totals the sweep's deadline misses.
	Misses int
	// Skips totals the releases skipped by overruns.
	Skips int
	// Migrations totals the cross-CPU thread migrations.
	Migrations int
	// PeakWorkers is the pool high-water mark across the sweep (0 on the
	// channel kernel).
	PeakWorkers int
	// FinalTime is the virtual clock of the last point's run.
	FinalTime rtime.Time
	// Fingerprint hashes every completion (task, instant) in schedule
	// order plus the per-point counters: runs are schedule-identical iff
	// it matches.
	Fingerprint uint64
	// Violations lists executive invariant violations (empty on a healthy
	// run).
	Violations []string
}

// smpTask is one generated periodic task.
type smpTask struct {
	period rtime.Duration
	cost   rtime.Duration
	util   float64
	prio   int // rate-monotonic priority (fp); initial priority (edf)
	cpu    int // static affinity, -1 under Global
}

// smpPeriods is the period palette, in time units.
var smpPeriods = []float64{8, 10, 12, 16, 20, 24, 32, 40}

// genSMPTasks derives the task set for one sweep point: periods from the
// palette, utilization shares normalized to util*CPUs, rate-monotonic
// priorities, and (for the pinning policies) a worst-fit-decreasing
// affinity packing by utilization.
func genSMPTasks(p SMPParams, point int, util float64) []smpTask {
	rng := &stressRand{s: p.Seed ^ (uint64(point)+1)*0x9e3779b97f4a7c15}
	tasks := make([]smpTask, p.Tasks)
	totalW := 0.0
	weights := make([]float64, p.Tasks)
	for i := range tasks {
		tasks[i].period = rtime.TUs(smpPeriods[rng.next()%uint64(len(smpPeriods))])
		weights[i] = float64(1 + rng.next()%9)
		totalW += weights[i]
	}
	totalU := util * float64(p.CPUs)
	for i := range tasks {
		tasks[i].util = totalU * weights[i] / totalW
		cost := rtime.Duration(tasks[i].util * float64(tasks[i].period))
		if cost < rtime.TU/100 {
			cost = rtime.TU / 100
		}
		if cost > tasks[i].period {
			cost = tasks[i].period // a task can at most saturate its own CPU share
		}
		tasks[i].cost = cost
	}
	// Rate-monotonic: shorter period ranks higher; ties by index.
	order := make([]int, p.Tasks)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return tasks[order[a]].period < tasks[order[b]].period })
	for rank, i := range order {
		tasks[i].prio = 2 + p.Tasks - rank
	}
	// Static affinity: worst-fit decreasing by utilization, deterministic.
	for i := range tasks {
		tasks[i].cpu = -1
	}
	if p.Policy != exec.Global {
		byUtil := make([]int, p.Tasks)
		for i := range byUtil {
			byUtil[i] = i
		}
		sort.SliceStable(byUtil, func(a, b int) bool { return tasks[byUtil[a]].util > tasks[byUtil[b]].util })
		load := make([]float64, p.CPUs)
		for _, i := range byUtil {
			best := 0
			for c := 1; c < p.CPUs; c++ {
				if load[c] < load[best] {
					best = c
				}
			}
			tasks[i].cpu = best
			load[best] += tasks[i].util
		}
	}
	return tasks
}

// RunSMP builds and runs the scenario sweep. The executive invariants are
// checked after every point; violations are collected, not fatal.
func RunSMP(p SMPParams) (*SMPResult, error) {
	if p.CPUs <= 0 {
		p.CPUs = 4
	}
	if p.Tasks <= 0 {
		p.Tasks = 12
	}
	if p.HorizonTU <= 0 {
		p.HorizonTU = 400
	}
	if p.Sched == "" {
		p.Sched = "fp"
	}
	if p.Sched != "fp" && p.Sched != "edf" {
		return nil, fmt.Errorf("smp: unknown scheduler %q (want fp or edf)", p.Sched)
	}
	res := &SMPResult{
		Scenario:    p.Scenario,
		CPUs:        p.CPUs,
		Policy:      p.Policy,
		Sched:       p.Sched,
		Fingerprint: fnvOffset,
	}
	var sweep []float64
	var costs []rtime.Duration
	switch p.Scenario {
	case SMPMissCurve:
		sweep = []float64{0.55, 0.70, 0.85, 1.00}
		for range sweep {
			costs = append(costs, p.MigrationCost)
		}
	case SMPMigration:
		if p.Policy == exec.Partitioned {
			return nil, fmt.Errorf("smp: the migration sweep needs a policy that can migrate (got partitioned)")
		}
		for _, tu := range []float64{0, 0.1, 0.25, 0.5, 1.0} {
			sweep = append(sweep, tu)
			costs = append(costs, rtime.TUs(tu))
		}
	default:
		return nil, fmt.Errorf("smp: unknown scenario %q (want %v)", p.Scenario, SMPScenarios())
	}
	for i, param := range sweep {
		util := param
		if p.Scenario == SMPMigration {
			util = 0.75
		}
		pt, err := runSMPOnce(p, res, i, util, costs[i])
		if err != nil {
			return nil, err
		}
		pt.Param = param
		res.Points = append(res.Points, pt)
		res.Releases += pt.Releases
		res.Misses += pt.Misses
		res.Skips += pt.Skips
		res.Migrations += pt.Migrations
	}
	for _, pt := range res.Points {
		res.Fingerprint = fnvMix(res.Fingerprint, uint64(pt.Releases))
		res.Fingerprint = fnvMix(res.Fingerprint, uint64(pt.Misses))
		res.Fingerprint = fnvMix(res.Fingerprint, uint64(pt.Skips))
		res.Fingerprint = fnvMix(res.Fingerprint, uint64(pt.Migrations))
	}
	if res.Releases == 0 {
		res.Violations = append(res.Violations, "no releases completed")
	}
	return res, nil
}

// runSMPOnce runs one sweep point on a fresh executive and folds its
// completions into the result fingerprint.
func runSMPOnce(p SMPParams, res *SMPResult, point int, util float64, cost rtime.Duration) (SMPPoint, error) {
	var pt SMPPoint
	tasks := genSMPTasks(p, point, util)
	ex := exec.NewWithOptions(nil, exec.Options{
		Kernel:        p.Kernel,
		MaxGoroutines: p.MaxGoroutines,
		CPUs:          p.CPUs,
		Migration:     p.Policy,
		MigrationCost: cost,
	})
	horizon := rtime.AtTU(p.HorizonTU)
	var ths []*exec.Thread
	for i, t := range tasks {
		i, t := i, t
		deadline := t.period // implicit deadline
		edfPrio := func(rel rtime.Time) int { return -int(int64(rel.Add(deadline))) }
		complete := func(tc *exec.TC, rel rtime.Time) {
			now := tc.Now()
			pt.Releases++
			if now > rel.Add(deadline) {
				pt.Misses++
			}
			res.Fingerprint = fnvMix(res.Fingerprint, uint64(i))
			res.Fingerprint = fnvMix(res.Fingerprint, uint64(now))
		}
		name := fmt.Sprintf("tau%d", i)
		if p.PeriodicActivation {
			spec := exec.ActivationSpec{Period: t.period}
			if p.Sched == "edf" {
				spec.Priority = edfPrio
			}
			th := ex.SpawnPeriodicOn(name, t.prio, t.cpu, spec, func(tc *exec.TC) {
				tc.Consume(t.cost)
				complete(tc, tc.Thread().CurrentRelease())
			})
			ths = append(ths, th)
			continue
		}
		prio := t.prio
		if p.Sched == "edf" {
			prio = edfPrio(0)
		}
		ex.SpawnOn(name, prio, 0, t.cpu, func(tc *exec.TC) {
			next := rtime.Time(0)
			for {
				tc.Consume(t.cost)
				complete(tc, next)
				// Advance the release exactly as the activation rearm
				// would: skip (and count) overrun releases, rebase the EDF
				// priority, then sleep — same kernel-call sequence, so the
				// two dispatch modes schedule identically.
				next = next.Add(t.period)
				for next < tc.Now() {
					next = next.Add(t.period)
					pt.Skips++
				}
				if p.Sched == "edf" {
					tc.SetPriority(edfPrio(next))
				}
				tc.SleepUntil(next)
			}
		})
	}
	err := ex.Run(horizon)
	if err == nil {
		if ierr := ex.CheckInvariants(); ierr != nil {
			res.Violations = append(res.Violations, ierr.Error())
		}
	}
	for _, th := range ths {
		pt.Skips += th.MissedActivations()
	}
	pt.Migrations = ex.Migrations()
	if pw := ex.PoolPeak(); pw > res.PeakWorkers {
		res.PeakWorkers = pw
	}
	res.FinalTime = ex.Now()
	ex.Shutdown()
	if err != nil {
		return pt, err
	}
	return pt, nil
}

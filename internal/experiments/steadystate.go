package experiments

import (
	"fmt"

	"rtsj/internal/exec"
	"rtsj/internal/rtime"
	"rtsj/internal/trace"
)

// Periodic steady-state scenario: the workload the activation-driven
// executive (exec.SpawnPeriodic) opens up. Thousands to tens of thousands
// of long-running periodic entities — the shape of the paper's periodic
// background load and its polling/deferrable/sporadic servers — run
// forever at a modest total utilization. In looping mode every entity pins
// a pool worker for the whole run, so the worker pool's goroutine bound
// degrades back to one per entity; in activation mode an entity owns no
// goroutine between releases and the whole system runs on a pool-sized
// worker set.

// SteadyStateParams configures the scenario generator. Everything derives
// deterministically from Seed, so two runs on any executive configuration
// schedule identically.
type SteadyStateParams struct {
	// Entities is the number of periodic entities.
	Entities int
	// HorizonTU is the run horizon in time units; entity periods span
	// 50-225 tu, so a few hundred tu gives every entity several releases.
	HorizonTU float64
	// Utilization is the total CPU demand of all entities (0 < u < 1);
	// each entity gets an equal share spread over its period.
	Utilization float64
	// Seed drives period classes and offsets.
	Seed uint64
	// Kernel and MaxGoroutines configure the executive.
	Kernel        exec.Kernel
	MaxGoroutines int // resident worker-pool size (direct kernel)
	// Activation selects the activation dispatch path (SpawnPeriodic); the
	// default false runs classic parked loops for comparison.
	Activation bool
	// Sink optionally records the run's schedule (nil keeps the
	// metrics-only fast path); cmd/stress -perfetto uses it.
	Sink trace.Sink
	// Stats optionally wires the executive's kernel counters
	// (exec.Options.Stats). Observational only.
	Stats *exec.Stats
}

// DefaultSteadyStateParams is the 10k-entity configuration used by
// BenchmarkExecPeriodicSteadyState and cmd/stress -scenario steady.
func DefaultSteadyStateParams() SteadyStateParams {
	return SteadyStateParams{
		Entities:      10_000,
		HorizonTU:     500,
		Utilization:   0.75,
		Seed:          2007,
		Kernel:        exec.DirectKernel,
		MaxGoroutines: 64,
		Activation:    true,
	}
}

// SteadyStateResult summarizes one steady-state run.
type SteadyStateResult struct {
	// Entities is the configured entity count; Activations counts
	// completed releases across all of them.
	Entities    int
	Activations int // completed releases across all entities
	// Missed counts releases skipped because a body overran (zero at the
	// default utilization).
	Missed int
	// TotalConsumed is the virtual CPU consumed by all entities.
	TotalConsumed rtime.Duration
	// Horizon and FinalTime delimit the run.
	Horizon   rtime.Time
	FinalTime rtime.Time // virtual clock when the run stopped
	// PeakWorkers is the pool goroutine high-water mark (0 on the channel
	// kernel).
	PeakWorkers int
	// Fingerprint hashes every activation completion (entity, instant) in
	// schedule order: two runs are schedule-identical iff it matches.
	Fingerprint uint64
}

// RunPeriodicSteadyState builds and runs the scenario.
func RunPeriodicSteadyState(p SteadyStateParams) (*SteadyStateResult, error) {
	if p.Entities <= 0 {
		return nil, fmt.Errorf("steadystate: need at least one entity (got %d)", p.Entities)
	}
	if p.Utilization <= 0 || p.Utilization >= 1 {
		return nil, fmt.Errorf("steadystate: utilization must be in (0,1) (got %g)", p.Utilization)
	}
	if p.HorizonTU <= 0 {
		return nil, fmt.Errorf("steadystate: horizon must be positive (got %g)", p.HorizonTU)
	}
	rng := &stressRand{s: p.Seed ^ 0xa076_1d64_78bd_642f}
	ex := exec.NewWithOptions(p.Sink, exec.Options{Kernel: p.Kernel, MaxGoroutines: p.MaxGoroutines, Stats: p.Stats})
	res := &SteadyStateResult{Entities: p.Entities, Fingerprint: fnvOffset}
	res.Horizon = rtime.AtTU(p.HorizonTU)

	loopMissed := 0
	var periodic []*exec.Thread
	for i := 0; i < p.Entities; i++ {
		i := i
		// Eight period classes, 50..225 tu; shorter periods run at higher
		// priority (rate-monotonic), deterministic offsets within the
		// first period.
		class := rng.next() % 8
		period := rtime.Duration(50+25*class) * rtime.TU
		offset := rtime.Time(rng.next() % uint64(period))
		cost := rtime.Duration(float64(period) * p.Utilization / float64(p.Entities))
		if cost <= 0 {
			cost = 1
		}
		prio := 2 + int(7-class)
		name := fmt.Sprintf("ss%d", i)
		work := func(tc *exec.TC) {
			tc.Consume(cost)
			res.Activations++
			res.Fingerprint = fnvMix(res.Fingerprint, uint64(i))
			res.Fingerprint = fnvMix(res.Fingerprint, uint64(tc.Now()))
		}
		if p.Activation {
			th := ex.SpawnPeriodic(name, prio, exec.ActivationSpec{Start: offset, Period: period}, work)
			periodic = append(periodic, th)
		} else {
			ex.Spawn(name, prio, offset, func(tc *exec.TC) {
				next := offset
				for {
					work(tc)
					next = next.Add(period)
					for next < tc.Now() {
						next = next.Add(period)
						loopMissed++
					}
					tc.SleepUntil(next)
				}
			})
		}
	}

	err := ex.Run(res.Horizon)
	res.FinalTime = ex.Now()
	res.PeakWorkers = ex.PoolPeak()
	for _, th := range ex.Threads() {
		res.TotalConsumed += th.Consumed()
	}
	res.Missed = loopMissed
	for _, th := range periodic {
		res.Missed += th.MissedActivations()
	}
	ex.Shutdown()
	if err != nil {
		return nil, err
	}
	return res, nil
}

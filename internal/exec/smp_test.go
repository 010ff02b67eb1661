package exec

import (
	"fmt"
	"testing"

	"rtsj/internal/rtime"
	"rtsj/internal/trace"
)

// SMP differential tests: every multiprocessor scenario is built
// identically on {ChannelKernel, DirectKernel at two pool sizes} x {loop,
// activation} x M in {1, 2, 4} and must produce trace-for-trace identical
// schedules, with the channel kernel's loop formulation as the M-CPU
// reference implementation. The M=1 runs must additionally match the plain
// uniprocessor executive byte for byte (TestSMPM1MatchesUniprocessor).

// smpScenario builds one workload. activation selects the dispatch
// formulation for its periodic entities (SpawnPeriodicOn vs a looping
// SpawnOn body) — the two must be schedule-identical, so the scenario is
// compared across that axis too.
type smpScenario struct {
	name    string
	horizon rtime.Time
	build   func(ex *Exec, m int, activation bool)
}

// smpPeriodicOn spawns a periodic entity in either formulation with the
// exact kernel-call sequence the activation rearm issues, so the two modes
// stay trace-identical (the property TestActivationDiff* pins at M=1).
func smpPeriodicOn(ex *Exec, name string, prio, cpu int, period, cost rtime.Duration, activation bool) {
	if activation {
		ex.SpawnPeriodicOn(name, prio, cpu, ActivationSpec{Period: period}, func(tc *TC) {
			tc.Consume(cost)
		})
		return
	}
	ex.SpawnOn(name, prio, 0, cpu, func(tc *TC) {
		next := rtime.Time(0)
		for {
			tc.Consume(cost)
			next = next.Add(period)
			for next < tc.Now() {
				next = next.Add(period)
			}
			tc.SleepUntil(next)
		}
	})
}

var smpCorpus = []smpScenario{
	{"parallel-periodics", at(40), func(ex *Exec, m int, activation bool) {
		// More ready work than CPUs at every instant: occupancy, placement
		// and preemption all exercised.
		for i := 0; i < 6; i++ {
			smpPeriodicOn(ex, fmt.Sprintf("p%d", i), 2+i%3, -1,
				tu(float64(5+2*i)), tu(float64(2+i%4)), activation)
		}
	}},
	{"pinned-affinity", at(40), func(ex *Exec, m int, activation bool) {
		// Explicit affinities: under Partitioned each CPU schedules its own
		// column; under Global they are placement hints only.
		for i := 0; i < 8; i++ {
			smpPeriodicOn(ex, fmt.Sprintf("a%d", i), 2+i%4, i%m,
				tu(float64(6+i)), tu(float64(2+i%3)), activation)
		}
	}},
	{"sporadic-burst", at(60), func(ex *Exec, m int, activation bool) {
		// One-shot jobs arriving in bursts over a periodic base load, with
		// same-instant releases forcing the (instant, CPU, prio, spawn
		// order) tie-break.
		smpPeriodicOn(ex, "base", 1, -1, tu(7), tu(3), activation)
		rng := newDetRand(99)
		for i := 0; i < 16; i++ {
			cost := tu(float64(1+rng.next()%30) / 10)
			prio := 2 + rng.next()%4
			rel := at(float64((i / 4) * 9)) // four jobs per burst instant
			ex.SpawnOn(fmt.Sprintf("j%d", i), prio, rel, -1, func(tc *TC) {
				tc.Consume(cost)
			})
		}
	}},
	{"mutex-across-cpus", at(50), func(ex *Exec, m int, activation bool) {
		// A lock shared by threads that may run on different CPUs: priority
		// inheritance and the serialization it forces must replay
		// identically.
		mx := NewMutex("m")
		for i := 0; i < 4; i++ {
			prio := 1 + i
			start := at(float64(i))
			ex.SpawnOn(fmt.Sprintf("c%d", i), prio, start, -1, func(tc *TC) {
				tc.WithLock(mx, func() { tc.Consume(tu(3)) })
				tc.Consume(tu(1))
			})
		}
		smpPeriodicOn(ex, "bg", 1, -1, tu(11), tu(4), activation)
	}},
	{"edf-dynamic-priority", at(60), func(ex *Exec, m int, activation bool) {
		// Job-level dynamic priorities (EDF by negated absolute deadline)
		// through both the ActivationSpec.Priority hook and TC.SetPriority.
		for i := 0; i < 5; i++ {
			period := tu(float64(6 + 3*i))
			cost := tu(float64(2 + i))
			edf := func(rel rtime.Time) int { return -int(int64(rel.Add(period))) }
			name := fmt.Sprintf("e%d", i)
			if activation {
				ex.SpawnPeriodicOn(name, 0, -1, ActivationSpec{Period: period, Priority: edf},
					func(tc *TC) { tc.Consume(cost) })
				continue
			}
			ex.SpawnOn(name, edf(0), 0, -1, func(tc *TC) {
				next := rtime.Time(0)
				for {
					tc.Consume(cost)
					next = next.Add(period)
					for next < tc.Now() {
						next = next.Add(period)
					}
					tc.SetPriority(edf(next))
					tc.SleepUntil(next)
				}
			})
		}
	}},
}

// smpDiffConfigs is the executive matrix each SMP scenario runs on; the
// first entry is the reference.
var smpDiffConfigs = []struct {
	name       string
	kernel     Kernel
	goroutines int
	activation bool
}{
	{"channel/thread", ChannelKernel, 0, false},
	{"direct/thread", DirectKernel, 0, false},
	{"direct/pooled", DirectKernel, 3, false},
	{"channel/activation", ChannelKernel, 0, true},
	{"direct/activation", DirectKernel, 3, true},
}

// smpPolicies pairs each policy with the CPU counts it is exercised at.
var smpPolicies = []struct {
	policy MigrationPolicy
	cpus   []int
}{
	{Global, []int{1, 2, 4}},
	{Partitioned, []int{1, 2, 4}},
	{Clustered, []int{1, 2, 4}},
}

// TestSMPDiffCorpus runs every SMP scenario through the full
// configuration x policy x M matrix and requires trace-for-trace identity
// with the channel reference at the same (policy, M), a valid
// m-CPU occupancy, and a clean invariant net.
func TestSMPDiffCorpus(t *testing.T) {
	for _, sc := range smpCorpus {
		for _, pol := range smpPolicies {
			for _, m := range pol.cpus {
				sc, pol, m := sc, pol, m
				t.Run(fmt.Sprintf("%s/%v/m%d", sc.name, pol.policy, m), func(t *testing.T) {
					t.Parallel()
					run := func(cfg int) *Exec {
						c := smpDiffConfigs[cfg]
						ex := NewWithOptions(trace.New(), Options{
							Kernel:        c.kernel,
							MaxGoroutines: c.goroutines,
							CPUs:          m,
							Migration:     pol.policy,
						})
						sc.build(ex, m, c.activation)
						if err := ex.Run(sc.horizon); err != nil {
							t.Fatalf("%s: %v", c.name, err)
						}
						if err := ex.CheckInvariants(); err != nil {
							t.Errorf("%s: %v", c.name, err)
						}
						return ex
					}
					ref := run(0)
					defer ref.Shutdown()
					if err := ref.Trace().CheckCPUs(m); err != nil {
						t.Errorf("reference trace invalid: %v", err)
					}
					for cfg := 1; cfg < len(smpDiffConfigs); cfg++ {
						got := run(cfg)
						compareExecsCPUs(t, smpDiffConfigs[cfg].name, ref, got, m)
						got.Shutdown()
					}
				})
			}
		}
	}
}

// TestSMPM1MatchesUniprocessor pins the core reduction: for every scenario
// in the SMP corpus and every migration policy, an executive configured
// with CPUs=1 is byte-identical — segments, events, final time, per-thread
// accounting — to the plain uniprocessor executive (Options zero value).
// The smp1 entries of diffConfigs and vmDiffConfigs extend the same
// property over the entire pre-SMP differential corpus.
func TestSMPM1MatchesUniprocessor(t *testing.T) {
	for _, sc := range smpCorpus {
		for _, kernel := range []Kernel{ChannelKernel, DirectKernel} {
			for _, pol := range smpPolicies {
				sc, kernel, pol := sc, kernel, pol
				t.Run(fmt.Sprintf("%s/%v/%v", sc.name, kernel, pol.policy), func(t *testing.T) {
					t.Parallel()
					run := func(opts Options) *Exec {
						ex := NewWithOptions(trace.New(), opts)
						sc.build(ex, 1, false)
						if err := ex.Run(sc.horizon); err != nil {
							t.Fatal(err)
						}
						return ex
					}
					uni := run(Options{Kernel: kernel})
					smp := run(Options{Kernel: kernel, CPUs: 1, Migration: pol.policy, MigrationCost: tu(1)})
					compareExecs(t, "m1", uni, smp)
					if smp.Migrations() != 0 {
						t.Errorf("M=1 run migrated %d times", smp.Migrations())
					}
					uni.Shutdown()
					smp.Shutdown()
				})
			}
		}
	}
}

// TestSMPDiffFuzz drives randomized workloads — random thread counts,
// priorities, affinities, costs, policies and CPU counts — through the
// configuration matrix: every configuration must match the channel
// reference trace-for-trace, and rerunning the reference must
// reproduce itself exactly (determinism across reruns and worker counts).
func TestSMPDiffFuzz(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 8
	}
	policies := []MigrationPolicy{Global, Partitioned, Clustered}
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial-%d", trial), func(t *testing.T) {
			t.Parallel()
			rng := newDetRand(uint64(7000 + trial))
			m := 1 << (rng.next() % 3) // 1, 2 or 4 CPUs
			policy := policies[rng.next()%len(policies)]
			cost := rtime.Duration(rng.next()%2) * tu(1) / 4 // migration cost 0 or 0.25tu
			n := 3 + rng.next()%8
			type plan struct {
				prio, cpu int
				start     rtime.Time
				period    rtime.Duration // 0: one-shot
				cost      rtime.Duration
			}
			plans := make([]plan, n)
			for i := range plans {
				plans[i] = plan{
					prio:  1 + rng.next()%5,
					cpu:   rng.next()%(m+1) - 1, // -1..m-1
					start: rtime.Time(rtime.Duration(rng.next()%10) * tu(1) / 2),
					cost:  rtime.Duration(1+rng.next()%25) * tu(1) / 10,
				}
				if rng.next()%2 == 0 {
					plans[i].period = rtime.Duration(4+rng.next()%10) * tu(1)
				}
			}
			build := func(ex *Exec, activation bool) {
				for i, p := range plans {
					name := fmt.Sprintf("z%d", i)
					if p.period > 0 {
						smpPeriodicOn(ex, name, p.prio, p.cpu, p.period, p.cost, activation)
						continue
					}
					c := p.cost
					ex.SpawnOn(name, p.prio, p.start, p.cpu, func(tc *TC) { tc.Consume(c) })
				}
			}
			run := func(kernel Kernel, workers int, activation bool) *Exec {
				ex := NewWithOptions(trace.New(), Options{
					Kernel:        kernel,
					MaxGoroutines: workers,
					CPUs:          m,
					Migration:     policy,
					MigrationCost: cost,
				})
				build(ex, activation)
				if err := ex.Run(at(60)); err != nil {
					t.Fatal(err)
				}
				if err := ex.CheckInvariants(); err != nil {
					t.Error(err)
				}
				return ex
			}
			ref := run(ChannelKernel, 0, false)
			defer ref.Shutdown()
			if err := ref.Trace().CheckCPUs(m); err != nil {
				t.Errorf("reference trace invalid: %v", err)
			}
			for _, cmp := range []struct {
				name       string
				kernel     Kernel
				workers    int
				activation bool
			}{
				{"rerun", ChannelKernel, 0, false},
				{"direct", DirectKernel, 0, false},
				{"direct-w8", DirectKernel, 8, false},
				{"direct-activation", DirectKernel, 2, true},
			} {
				got := run(cmp.kernel, cmp.workers, cmp.activation)
				compareExecsCPUs(t, cmp.name, ref, got, m)
				got.Shutdown()
			}
			if t.Failed() {
				t.Fatalf("fuzz trial %d diverged (seed %d, m=%d, policy=%v)", trial, 7000+trial, m, policy)
			}
		})
	}
}

// TestSMPOccupancy pins that M CPUs genuinely run in parallel: M
// always-ready threads on M CPUs each make full progress over the window,
// consuming M times what a uniprocessor could.
func TestSMPOccupancy(t *testing.T) {
	for _, m := range []int{2, 4} {
		ex := NewWithOptions(trace.New(), Options{CPUs: m})
		var ths []*Thread
		for i := 0; i < m; i++ {
			ths = append(ths, ex.Spawn(fmt.Sprintf("w%d", i), 1, 0, func(tc *TC) {
				tc.Consume(tu(10))
			}))
		}
		if err := ex.Run(at(10)); err != nil {
			t.Fatal(err)
		}
		for _, th := range ths {
			if th.Consumed() != tu(10) {
				t.Errorf("m=%d: %s consumed %v, want full 10tu", m, th.Name(), th.Consumed())
			}
		}
		if err := ex.Trace().CheckCPUs(m); err != nil {
			t.Error(err)
		}
		if m > 1 {
			if err := ex.Trace().CheckCPUs(m - 1); err == nil {
				t.Errorf("m=%d: schedule fits on %d CPUs: nothing ran in parallel", m, m-1)
			}
		}
		ex.Shutdown()
	}
}

// TestSMPPartitionedIsolation pins the partitioned policy: threads pinned
// to different CPUs never share one, and a CPU-0 overload cannot steal
// time from CPU 1.
func TestSMPPartitionedIsolation(t *testing.T) {
	ex := NewWithOptions(trace.New(), Options{CPUs: 2, Migration: Partitioned})
	hog := ex.SpawnOn("hog", 9, 0, 0, func(tc *TC) { tc.Consume(tu(100)) })
	quiet := ex.SpawnOn("quiet", 1, 0, 1, func(tc *TC) { tc.Consume(tu(10)) })
	if err := ex.Run(at(20)); err != nil {
		t.Fatal(err)
	}
	if hog.Consumed() != tu(20) {
		t.Errorf("hog consumed %v, want the whole 20tu window", hog.Consumed())
	}
	if quiet.Consumed() != tu(10) || !quiet.Done() {
		t.Errorf("quiet consumed %v done=%v: partition not isolated from the CPU-0 hog",
			quiet.Consumed(), quiet.Done())
	}
	if ex.Migrations() != 0 {
		t.Errorf("partitioned run migrated %d times", ex.Migrations())
	}
	ex.Shutdown()
}

// TestSMPMigrationCostCharged pins the migration accounting: under Global
// with a migration cost, a preempted thread resuming on another CPU pays
// the penalty, visible as extra consumed-time demand.
func TestSMPMigrationCostCharged(t *testing.T) {
	run := func(cost rtime.Duration) (*Exec, *Thread) {
		ex := NewWithOptions(trace.New(), Options{CPUs: 2, Migration: Global, MigrationCost: cost})
		// The victim starts alone on CPU 0; two simultaneous higher-priority
		// bursts displace it, with the long burst (earlier spawn order)
		// landing on CPU 0. When the short burst finishes, the victim
		// resumes mid-consume on CPU 1 — a migration.
		victim := ex.Spawn("victim", 1, 0, func(tc *TC) { tc.Consume(tu(12)) })
		ex.Spawn("burst-long", 5, at(1), func(tc *TC) { tc.Consume(tu(4)) })
		ex.Spawn("burst-short", 5, at(1), func(tc *TC) { tc.Consume(tu(2)) })
		if err := ex.Run(at(40)); err != nil {
			t.Fatal(err)
		}
		return ex, victim
	}
	free, fv := run(0)
	paid, pv := run(tu(1))
	if free.Migrations() == 0 {
		t.Fatal("victim never migrated: scenario does not exercise migration")
	}
	if fv.Migrations() == 0 {
		t.Error("per-thread migration counter stayed zero")
	}
	if !pv.Done() || !fv.Done() {
		t.Fatalf("victim did not finish (free done=%v, paid done=%v)", fv.Done(), pv.Done())
	}
	if pv.Consumed() <= fv.Consumed() {
		t.Errorf("migration cost not charged: paid consumed %v vs free %v",
			pv.Consumed(), fv.Consumed())
	}
	free.Shutdown()
	paid.Shutdown()
}

// TestSMPAffinityValidation pins the spawn-time affinity check.
func TestSMPAffinityValidation(t *testing.T) {
	ex := NewWithOptions(nil, Options{CPUs: 2})
	defer ex.Shutdown()
	for _, cpu := range []int{-2, 2, 7} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("affinity %d accepted on a 2-CPU executive", cpu)
				}
			}()
			ex.SpawnOn("bad", 1, 0, cpu, func(tc *TC) {})
		}()
	}
}

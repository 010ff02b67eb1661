package exec

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"rtsj/internal/rtime"
	"rtsj/internal/trace"
)

// TestPooledBoundedGoroutines is the worker pool's headline property:
// thousands of run-to-completion threads execute on a handful of worker
// goroutines. The peak worker count is bounded by the preemption depth
// (how many bodies are suspended mid-execution at once), not by the
// thread count.
func TestPooledBoundedGoroutines(t *testing.T) {
	const n = 2000
	t.Run(DirectKernel.String(), func(t *testing.T) {
		before := runtime.NumGoroutine()
		ex := NewWithOptions(nil, Options{MaxGoroutines: 8})
		rng := newDetRand(7)
		done := 0
		for i := 0; i < n; i++ {
			prio := 1 + rng.next()%4
			start := rtime.Time(rtime.Duration(rng.next()%5000) * rtime.TU / 10)
			cost := rtime.Duration(1+rng.next()%10) * rtime.TU / 10
			ex.Spawn(fmt.Sprintf("job%d", i), prio, start, func(tc *TC) {
				tc.Consume(cost)
				done++
			})
		}
		if err := ex.Run(at(2000)); err != nil {
			t.Fatal(err)
		}
		ex.Shutdown()
		if done != n {
			t.Fatalf("completed %d of %d jobs", done, n)
		}
		if peak := ex.PoolPeak(); peak > 8 {
			t.Errorf("pool peaked at %d workers, want <= MaxGoroutines (8)", peak)
		}
		// The process never carried anything close to one goroutine
		// per thread.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before+8 && time.Now().Before(deadline) {
			runtime.Gosched()
			time.Sleep(time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before+16 {
			t.Errorf("goroutines: before=%d after=%d (pool leaked)", before, after)
		}
	})
}

// TestPooledShutdownReleasesGoroutines: killed mid-body threads, sleepers,
// and never-started threads (which never got a worker at all) must all be
// reaped, and the resident workers with them.
func TestPooledShutdownReleasesGoroutines(t *testing.T) {
	t.Run(DirectKernel.String(), func(t *testing.T) {
		before := runtime.NumGoroutine()
		for i := 0; i < 20; i++ {
			ex := NewWithOptions(nil, Options{MaxGoroutines: 4})
			q := NewWaitQueue("never")
			ex.Spawn("blocked", 1, 0, func(tc *TC) { tc.Wait(q) })
			ex.Spawn("sleeper", 1, 0, func(tc *TC) { tc.SleepUntil(at(1e6)) })
			ex.Spawn("never-started", 1, at(1e6), func(tc *TC) {})
			if err := ex.Run(at(5)); err != nil {
				t.Fatal(err)
			}
			ex.Shutdown()
		}
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before+3 && time.Now().Before(deadline) {
			runtime.Gosched()
			time.Sleep(time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before+5 {
			t.Fatalf("goroutines leaked: before=%d after=%d", before, after)
		}
	})
}

// TestPooledOverCapAndRetire pins the resident-size semantics: when more
// bodies must be suspended mid-execution than MaxGoroutines, the pool grows
// past the cap (refusing would deadlock the executive) and retires back
// down as bodies finish.
func TestPooledOverCapAndRetire(t *testing.T) {
	ex := NewWithOptions(nil, Options{Kernel: DirectKernel, MaxGoroutines: 1})
	// A priority ladder: each thread is preempted mid-consume by the next,
	// so at time 5 all five bodies are live at once.
	for i := 0; i < 5; i++ {
		ex.Spawn(fmt.Sprintf("rung%d", i), 1+i, at(float64(i)), func(tc *TC) {
			tc.Consume(tu(10))
		})
	}
	if err := ex.Run(at(100)); err != nil {
		t.Fatal(err)
	}
	ex.Shutdown()
	if peak := ex.PoolPeak(); peak != 5 {
		t.Errorf("pool peak = %d, want 5 (one per concurrently live body)", peak)
	}
}

// TestPooledBurstNoChurn pins the relaxed availability accounting: a
// serial burst of run-to-completion jobs (each finishing before the next
// starts) on a pool whose transient depth exceeded MaxGoroutines must
// reuse the over-cap worker when it is the only one available, instead of
// retiring it and respawning a fresh goroutine for every job.
func TestPooledBurstNoChurn(t *testing.T) {
	t.Run(DirectKernel.String(), func(t *testing.T) {
		ex := NewWithOptions(nil, Options{MaxGoroutines: 1})
		// Phase 1: a priority ladder forces the pool two over its cap.
		for i := 0; i < 3; i++ {
			ex.Spawn(fmt.Sprintf("rung%d", i), 5+i, at(float64(i)), func(tc *TC) {
				tc.Consume(tu(5))
			})
		}
		// Phase 2: a serial burst after the ladder has drained.
		const burst = 50
		done := 0
		for i := 0; i < burst; i++ {
			ex.Spawn(fmt.Sprintf("b%d", i), 1, at(float64(40+i)), func(tc *TC) {
				tc.Consume(tu(0.5))
				done++
			})
		}
		if err := ex.Run(at(200)); err != nil {
			t.Fatal(err)
		}
		ex.Shutdown()
		if done != burst {
			t.Fatalf("completed %d of %d burst jobs", done, burst)
		}
		if peak, spawned := ex.PoolPeak(), ex.PoolSpawned(); spawned != peak {
			t.Errorf("spawned %d workers for peak %d: burst churned retire/respawn", spawned, peak)
		}
	})
}

// TestPooledRetireConvergesToCap: after a transient over-cap episode, the
// pool drains back to MaxGoroutines (one retirement per finish) once
// enough bodies finish with another worker already available.
func TestPooledRetireConvergesToCap(t *testing.T) {
	ex := NewWithOptions(nil, Options{Kernel: DirectKernel, MaxGoroutines: 2})
	for i := 0; i < 6; i++ {
		ex.Spawn(fmt.Sprintf("rung%d", i), 1+i, at(float64(i)), func(tc *TC) {
			tc.Consume(tu(10))
		})
	}
	if err := ex.Run(at(100)); err != nil {
		t.Fatal(err)
	}
	if peak := ex.PoolPeak(); peak != 6 {
		t.Errorf("pool peak = %d, want 6", peak)
	}
	// All bodies finished; the pool must have shed its over-cap workers.
	p := &ex.pool
	p.mu.Lock()
	live := p.live
	p.mu.Unlock()
	if live > 2 {
		t.Errorf("pool kept %d live workers after quiescence, cap is 2", live)
	}
	ex.Shutdown()
}

// TestPooledAccountingDeterministic runs the same preemption-heavy
// workload repeatedly and requires identical pool metrics every time: the
// accounting happens only at synchronous scheduling points, so pool sizes
// are a pure function of the schedule.
func TestPooledAccountingDeterministic(t *testing.T) {
	run := func() (int, int) {
		ex := NewWithOptions(nil, Options{Kernel: DirectKernel, MaxGoroutines: 2})
		rng := newDetRand(11)
		for i := 0; i < 300; i++ {
			prio := 1 + rng.next()%5
			start := rtime.Time(rtime.Duration(rng.next()%600) * rtime.TU / 10)
			cost := rtime.Duration(1+rng.next()%20) * rtime.TU / 10
			ex.Spawn(fmt.Sprintf("j%d", i), prio, start, func(tc *TC) { tc.Consume(cost) })
		}
		if err := ex.Run(at(500)); err != nil {
			t.Fatal(err)
		}
		ex.Shutdown()
		return ex.PoolPeak(), ex.PoolSpawned()
	}
	peak0, spawned0 := run()
	for i := 0; i < 5; i++ {
		if peak, spawned := run(); peak != peak0 || spawned != spawned0 {
			t.Fatalf("run %d: pool metrics drifted: peak %d/%d spawned %d/%d",
				i, peak, peak0, spawned, spawned0)
		}
	}
}

// TestPooledErrorSurfaces: a panicking body on a pool worker reports its
// error exactly like a dedicated goroutine would.
func TestPooledErrorSurfaces(t *testing.T) {
	ex := NewWithOptions(nil, Options{MaxGoroutines: 2})
	ex.Spawn("ok", 2, 0, func(tc *TC) { tc.Consume(tu(1)) })
	ex.Spawn("bad", 1, 0, func(tc *TC) {
		tc.Consume(tu(1))
		panic("boom")
	})
	err := ex.Run(at(10))
	ex.Shutdown()
	if err == nil {
		t.Fatal("panic not surfaced")
	}
}

// TestWithBudgetZeroAndNegative pins the defined semantics of a
// non-positive budget on every executive configuration: the section's
// first Consume unwinds before any CPU is consumed; a section that never
// consumes completes.
func TestWithBudgetZeroAndNegative(t *testing.T) {
	for _, cfg := range diffConfigs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			type outcome struct {
				interrupted bool
				elapsed     rtime.Duration
				reached     bool
			}
			var zero, neg, noConsume outcome
			var afterConsumed rtime.Duration
			ex := NewWithOptions(trace.New(), cfg.opts)
			th := ex.Spawn("srv", 1, 0, func(tc *TC) {
				start := tc.Now()
				zero.interrupted = tc.WithBudget(0, func() {
					tc.Consume(tu(3))
					zero.reached = true
				})
				zero.elapsed = tc.Now().Sub(start)

				start = tc.Now()
				neg.interrupted = tc.WithBudget(tu(-2), func() {
					tc.Consume(tu(3))
					neg.reached = true
				})
				neg.elapsed = tc.Now().Sub(start)

				noConsume.interrupted = tc.WithBudget(0, func() {
					noConsume.reached = true // zero-time work: completes
				})

				// The thread is fully usable after the unwinds.
				tc.Consume(tu(2))
				afterConsumed = tc.Thread().Consumed()
			})
			if err := ex.Run(at(50)); err != nil {
				t.Fatal(err)
			}
			ex.Shutdown()
			for i, o := range []outcome{zero, neg} {
				if !o.interrupted {
					t.Errorf("case %d: non-positive budget must interrupt", i)
				}
				if o.reached {
					t.Errorf("case %d: code after the first Consume ran", i)
				}
				if o.elapsed != 0 {
					t.Errorf("case %d: elapsed = %v, want 0", i, o.elapsed)
				}
			}
			if noConsume.interrupted || !noConsume.reached {
				t.Errorf("consume-free section: interrupted=%v reached=%v, want completed",
					noConsume.interrupted, noConsume.reached)
			}
			if afterConsumed != tu(2) || th.Consumed() != tu(2) {
				t.Errorf("consumed = %v, want 2tu (budgeted consumes must not charge)", th.Consumed())
			}
		})
	}
}

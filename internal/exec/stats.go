package exec

import "rtsj/internal/obs"

// Stats is the executive's observability hook set: obs instruments the
// kernel bumps while it schedules. Every field may be nil (bumping a nil
// instrument is a no-op), and a nil *Stats in Options disables the whole
// layer — the executive then pays one predictable branch per hook site.
//
// The counters are observational only: they count kernel-internal work
// (context switches, heap growth, pool churn) whose exact values are
// stable for a fixed configuration but are NOT part of the simulation
// result. Nothing here may feed a fingerprint, trace or metrics output —
// rtlint's nondeterm analyzer enforces that reads stay out of the
// deterministic packages.
type Stats struct {
	// ContextSwitches counts real control transfers between goroutines
	// (direct-kernel handoffs, channel-kernel resumes).
	ContextSwitches *obs.Counter
	// Preemptions counts threads displaced from a CPU while still ready
	// with demand remaining.
	Preemptions *obs.Counter
	// Migrations counts threads resuming on a different CPU than the one
	// they last occupied (SMP only).
	Migrations *obs.Counter
	// TimerHeapMax is the timer queue's high-water mark.
	TimerHeapMax *obs.Gauge
	// ReadyMax is the high-water mark across the per-domain ready queues.
	ReadyMax *obs.Gauge
	// PoolSpawns counts worker goroutines created by the direct kernel's
	// pool.
	PoolSpawns *obs.Counter
	// PoolRetires counts pool workers retired after a body finished.
	PoolRetires *obs.Counter
	// PoolQueueMax is the high-water mark of the pool's pending-start queue.
	PoolQueueMax *obs.Gauge
	// Dispatches counts periodic activation releases that reached a body.
	Dispatches *obs.Counter
	// Misses counts deadline overruns handled by the rearm path (skipped
	// or late releases, per the thread's MissPolicy).
	Misses *obs.Counter
}

// NewStats builds a Stats wired to registry r under "exec."-prefixed
// metric names. A nil registry yields a Stats of nil instruments, which
// is equivalent to no stats at all.
func NewStats(r *obs.Registry) *Stats {
	return &Stats{
		ContextSwitches: r.Counter("exec.context_switches"),
		Preemptions:     r.Counter("exec.preemptions"),
		Migrations:      r.Counter("exec.migrations"),
		TimerHeapMax:    r.Gauge("exec.timer_heap_max"),
		ReadyMax:        r.Gauge("exec.ready_max"),
		PoolSpawns:      r.Counter("exec.pool_spawns"),
		PoolRetires:     r.Counter("exec.pool_retires"),
		PoolQueueMax:    r.Gauge("exec.pool_queue_max"),
		Dispatches:      r.Counter("exec.dispatches"),
		Misses:          r.Counter("exec.misses"),
	}
}

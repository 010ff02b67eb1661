// Package exec is a deterministic virtual-time executive: it runs goroutines
// as preemptive fixed-priority threads over a simulated clock.
//
// This is the substrate that replaces the paper's execution platform (the
// RTSJ reference implementation on a real-time Linux kernel). Go's garbage
// collector and goroutine scheduler preclude faithful hard real-time
// behaviour on the wall clock, so instead the executive virtualizes time:
// threads declare CPU demand with Consume, and the kernel advances a virtual
// clock, preempting and interleaving exactly as a uniprocessor
// fixed-priority scheduler would. Everything the paper's measurements depend
// on — preemption by higher-priority timer threads, asynchronous
// interruption of a budgeted section (Timed/AIE), wall-clock capacity
// accounting — is reproduced exactly and deterministically.
//
// Mechanics: thread bodies are goroutines, but exactly one runs at a time;
// code between kernel calls executes in zero virtual time, and virtual time
// only advances while a thread is inside Consume or the processor is idle.
//
// # Kernel selection
//
// Two kernels implement the scheduling contract behind one API:
//
//   - DirectKernel (the default): channel-free. The scheduling loop runs
//     inline in whichever goroutine currently holds the virtual CPU, so
//     consecutive same-thread Consume/advance/sleep steps never leave the
//     goroutine, and a real parked-goroutine handoff (mutex + condition
//     variable, one futex wake per switch) happens only when a *different*
//     thread must run. The ready queue and timer queue are binary heaps,
//     and thread bodies run on a bounded pool of worker goroutines.
//
//   - ChannelKernel: the original two-channel rendezvous (kernel goroutine
//     resumes a thread, thread sends its next request back), with linear
//     ready/timer scans and one goroutine per thread. It is kept as the
//     reference implementation (unchanged except one deliberate fix noted
//     in kernel_channel.go: cancelled timers never fire); differential
//     tests assert both kernels produce trace-for-trace identical
//     schedules.
//
// Use New for the default direct kernel, NewKernel to pick explicitly, and
// NewWithOptions for full configuration. There is no reason to run
// ChannelKernel outside differential tests.
//
// # Trace recording
//
// The executive records into a trace.Sink. Passing *trace.Trace accumulates
// a full schedule recording; passing nil (or trace.Nop) records nothing —
// the metrics-only fast path used by the table experiments, which skips the
// per-slice segment append entirely.
//
// # Pooled workers
//
// The direct kernel multiplexes thread bodies over a pool of worker
// goroutines (pool.go): a body starts on a worker the first time the
// scheduler runs its thread, and the worker is recycled when the body
// returns, so a system with tens of thousands of mostly run-to-completion
// threads needs only a handful of goroutines — the live count is bounded
// by the preemption depth. Options.MaxGoroutines is the number of workers
// kept resident once free; it never changes a scheduling decision.
//
// # Activation-driven periodic entities
//
// SpawnPeriodic expresses a periodic entity as an activation body dispatched
// once per release (activation.go) instead of a long-lived loop parked in a
// sleep between releases. The body returning is the release boundary:
// overruns skip (and count) missed releases, exactly like the RTSJ's
// WaitForNextPeriod without a miss handler. Between releases the entity
// owns no goroutine at all, which matters for periodic-heavy workloads:
// looping bodies pin one goroutine (or pool worker) per entity for the
// whole run, while activations hold the goroutine count at the pool size.
// Schedules are identical in both formulations.
//
// # Choosing a configuration
//
//   - Spawn for one-shot and sporadic work: the body occupies a pool worker
//     only while it is in progress.
//   - SpawnPeriodic for periodic load: many long-running periodic entities
//     pin no worker between releases, where a looping body pins one for
//     the whole run.
//
// Both formulations are differential-tested to produce identical
// schedules, so the choice is purely a resource/performance trade.
package exec

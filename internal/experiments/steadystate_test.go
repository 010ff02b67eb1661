package experiments

import (
	"runtime"
	"testing"

	"rtsj/internal/exec"
)

// TestSteadyStateBoundedGoroutines is the acceptance test of the
// activation-driven executive: a 10k-periodic-entity steady-state workload
// runs with the goroutine count bounded by the pool size, never
// approaching one goroutine per entity (which is exactly what looping mode
// would cost).
func TestSteadyStateBoundedGoroutines(t *testing.T) {
	p := DefaultSteadyStateParams()
	if testing.Short() {
		p.Entities = 2000
	}
	before := runtime.NumGoroutine()
	res, err := RunPeriodicSteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Activations < p.Entities {
		t.Fatalf("only %d activations for %d entities (each should release at least once)",
			res.Activations, p.Entities)
	}
	if res.PeakWorkers == 0 || res.PeakWorkers > p.MaxGoroutines {
		t.Errorf("pool peaked at %d workers, want 1..%d (O(pool size), not O(entities))",
			res.PeakWorkers, p.MaxGoroutines)
	}
	if after := runtime.NumGoroutine(); after > before+p.MaxGoroutines+16 {
		t.Errorf("goroutines after run: before=%d after=%d (not bounded by the pool)", before, after)
	}
	if res.Missed != 0 {
		t.Errorf("%d releases missed at utilization %g; scenario is oversubscribed", res.Missed, p.Utilization)
	}
	if res.FinalTime != res.Horizon {
		t.Errorf("steady-state run ended at %v, want the %v horizon", res.FinalTime.TUs(), res.Horizon.TUs())
	}
}

// TestSteadyStateSchedulesIdenticalAcrossConfigs differential-tests the
// steady-state scenario over the full executive matrix: loop and
// activation formulations, both kernels, two worker-pool sizes — the
// activation fingerprint must match the looping reference exactly.
func TestSteadyStateSchedulesIdenticalAcrossConfigs(t *testing.T) {
	p := DefaultSteadyStateParams()
	p.Entities = 400 // keep the looping and channel runs fast
	p.HorizonTU = 300
	if testing.Short() {
		p.Entities = 120
	}
	ref := p
	ref.Kernel = exec.ChannelKernel
	ref.MaxGoroutines = 0
	ref.Activation = false
	want, err := RunPeriodicSteadyState(ref)
	if err != nil {
		t.Fatal(err)
	}
	if want.Activations == 0 {
		t.Fatal("reference run scheduled no activations")
	}
	for _, cfg := range []struct {
		name          string
		kernel        exec.Kernel
		maxGoroutines int
		activation    bool
	}{
		{"direct-loop", exec.DirectKernel, 0, false},
		{"direct-loop-pooled", exec.DirectKernel, 8, false},
		{"channel-activation", exec.ChannelKernel, 0, true},
		{"direct-activation", exec.DirectKernel, 8, true},
		{"direct-activation-w0", exec.DirectKernel, 0, true},
	} {
		q := p
		q.Kernel = cfg.kernel
		q.MaxGoroutines = cfg.maxGoroutines
		q.Activation = cfg.activation
		got, err := RunPeriodicSteadyState(q)
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		if got.Fingerprint != want.Fingerprint || got.Activations != want.Activations ||
			got.TotalConsumed != want.TotalConsumed || got.Missed != want.Missed {
			t.Errorf("%s diverged from loop reference: fingerprint %x vs %x, activations %d vs %d, consumed %v vs %v, missed %d vs %d",
				cfg.name, got.Fingerprint, want.Fingerprint, got.Activations, want.Activations,
				got.TotalConsumed, want.TotalConsumed, got.Missed, want.Missed)
		}
	}
}

func TestSteadyStateParamValidation(t *testing.T) {
	for _, p := range []SteadyStateParams{
		{Entities: 0, HorizonTU: 10, Utilization: 0.5},
		{Entities: 1, HorizonTU: 10, Utilization: 0},
		{Entities: 1, HorizonTU: 10, Utilization: 1.5},
		{Entities: 1, HorizonTU: 0, Utilization: 0.5},
	} {
		if _, err := RunPeriodicSteadyState(p); err == nil {
			t.Errorf("params %+v: expected an error", p)
		}
	}
}

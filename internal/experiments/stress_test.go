package experiments

import (
	"runtime"
	"testing"

	"rtsj/internal/exec"
)

// TestStressLargeNBoundedGoroutines is the acceptance test of the worker
// pool's headroom: a >=10k-thread scenario completes with the pool
// goroutine count bounded by MaxGoroutines, never approaching one
// goroutine per thread.
func TestStressLargeNBoundedGoroutines(t *testing.T) {
	p := DefaultStressParams()
	if testing.Short() {
		p.Jobs = 2000
	}
	before := runtime.NumGoroutine()
	res, err := RunStress(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != p.Jobs {
		t.Fatalf("completed %d of %d jobs", res.Completed, p.Jobs)
	}
	if res.PeakWorkers == 0 || res.PeakWorkers > p.MaxGoroutines {
		t.Errorf("pool peaked at %d workers, want 1..%d", res.PeakWorkers, p.MaxGoroutines)
	}
	if after := runtime.NumGoroutine(); after > before+p.MaxGoroutines+8 {
		t.Errorf("goroutines after run: before=%d after=%d (not bounded by the pool)", before, after)
	}
	if res.BackgroundRun == 0 {
		t.Error("background load never ran")
	}
}

// TestStressSchedulesIdenticalAcrossConfigs differential-tests the stress
// scenario itself over the full executive matrix: the completion-order
// fingerprint, total accounting and final instant must be identical on
// both kernels, at two worker-pool sizes, with and without activation
// dispatch of the background load.
func TestStressSchedulesIdenticalAcrossConfigs(t *testing.T) {
	p := DefaultStressParams()
	p.Jobs = 1500 // keep the channel-kernel runs fast
	if testing.Short() {
		p.Jobs = 300
	}
	p.Kernel = exec.ChannelKernel
	p.MaxGoroutines = 0
	ref, err := RunStress(p)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Completed != p.Jobs {
		t.Fatalf("reference completed %d of %d jobs", ref.Completed, p.Jobs)
	}
	for _, cfg := range []struct {
		name          string
		kernel        exec.Kernel
		maxGoroutines int
		activation    bool
	}{
		{"direct", exec.DirectKernel, 0, false},
		{"direct-pooled", exec.DirectKernel, 8, false},
		{"channel-activation", exec.ChannelKernel, 0, true},
		{"direct-activation", exec.DirectKernel, 8, true},
	} {
		q := p
		q.Kernel = cfg.kernel
		q.MaxGoroutines = cfg.maxGoroutines
		q.PeriodicActivation = cfg.activation
		got, err := RunStress(q)
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		if got.Fingerprint != ref.Fingerprint || got.Completed != ref.Completed ||
			got.TotalConsumed != ref.TotalConsumed || got.FinalTime != ref.FinalTime {
			t.Errorf("%s diverged from reference: fingerprint %x vs %x, completed %d vs %d, consumed %v vs %v, final %v vs %v",
				cfg.name, got.Fingerprint, ref.Fingerprint, got.Completed, ref.Completed,
				got.TotalConsumed, ref.TotalConsumed, got.FinalTime.TUs(), ref.FinalTime.TUs())
		}
	}
}

package experiments

import (
	"testing"

	"rtsj/internal/exec"
	"rtsj/internal/faults"
)

// overloadConfigs is the full executive configuration matrix the overload
// fingerprints are pinned across: {channel, direct} kernels x {thread,
// pooled, activation} rows. "thread" runs with a resident pool size of 0,
// "pooled" with 8. The channel kernel ignores the pool size (it runs one
// goroutine per thread), so its pooled row pins that contract: setting
// MaxGoroutines on the reference changes nothing.
var overloadConfigs = []struct {
	name       string
	kernel     exec.Kernel
	goroutines int
	activation bool
}{
	{"direct/thread", exec.DirectKernel, 0, false},
	{"direct/pooled", exec.DirectKernel, 8, false},
	{"direct/activation", exec.DirectKernel, 8, true},
	{"channel/thread", exec.ChannelKernel, 0, false},
	{"channel/pooled", exec.ChannelKernel, 8, false},
	{"channel/activation", exec.ChannelKernel, 8, true},
}

// Pinned fingerprints of the canonical scenario configurations
// (DefaultOverloadParams). A change here means the overload schedules
// changed — intentional changes must update all three together.
var overloadFingerprints = map[string]uint64{
	OverloadMissStorm:  0x1d0f49be3ec6e242,
	OverloadTransient:  0x1796b53e68a38488,
	OverloadSaturation: 0x4c411b6700b2d2fc,
}

// TestOverloadMatrix runs every scenario on every executive configuration
// and requires the pinned fingerprint, a clean invariant net, and the
// scenario-specific degradation properties on each.
func TestOverloadMatrix(t *testing.T) {
	for _, sc := range OverloadScenarios() {
		for _, cfg := range overloadConfigs {
			t.Run(sc+"/"+cfg.name, func(t *testing.T) {
				p := DefaultOverloadParams(sc)
				p.Kernel = cfg.kernel
				p.MaxGoroutines = cfg.goroutines
				p.PeriodicActivation = cfg.activation
				r, err := RunOverload(p)
				if err != nil {
					t.Fatal(err)
				}
				if len(r.Violations) != 0 {
					t.Errorf("invariant violations: %v", r.Violations)
				}
				if r.Fingerprint != overloadFingerprints[sc] {
					t.Errorf("fingerprint %#x, pinned %#x", r.Fingerprint, overloadFingerprints[sc])
				}
				if r.PeriodicMisses != 0 {
					t.Errorf("hard periodics missed %d deadlines", r.PeriodicMisses)
				}
				if r.PeriodicReleases == 0 {
					t.Error("no periodic releases completed")
				}
				switch sc {
				case OverloadMissStorm:
					if r.Shed == 0 {
						t.Error("miss-storm shed nothing: not an overload")
					}
				case OverloadTransient:
					if r.Pending != 0 {
						t.Errorf("transient backlog did not drain: %d pending", r.Pending)
					}
					if r.Shed == 0 {
						t.Error("transient pulse shed nothing: not an overload")
					}
				case OverloadSaturation:
					if r.Served >= r.Released {
						t.Error("saturation sweep served everything: not saturated")
					}
				}
			})
		}
	}
}

// TestOverloadMissPolicies pins that each miss policy yields one behavior
// across the configurations that support it: the policy changes the
// schedule, the executive configuration must not.
func TestOverloadMissPolicies(t *testing.T) {
	for _, tc := range []struct {
		name       string
		miss       exec.MissPolicy
		activation bool // MissAbort requires activation mode
	}{
		{"continue-late", exec.MissContinueLate, false},
		{"abort", exec.MissAbort, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var want uint64
			for i, cfg := range overloadConfigs {
				if tc.activation && !cfg.activation {
					continue
				}
				p := DefaultOverloadParams(OverloadMissStorm)
				p.Events = 120
				p.PeriodicMiss = tc.miss
				p.Kernel = cfg.kernel
				p.MaxGoroutines = cfg.goroutines
				p.PeriodicActivation = cfg.activation
				r, err := RunOverload(p)
				if err != nil {
					t.Fatal(err)
				}
				if len(r.Violations) != 0 {
					t.Errorf("%s: invariant violations: %v", cfg.name, r.Violations)
				}
				if i == 0 || want == 0 {
					want = r.Fingerprint
					continue
				}
				if r.Fingerprint != want {
					t.Errorf("%s: fingerprint %#x, want %#x", cfg.name, r.Fingerprint, want)
				}
			}
		})
	}
}

// TestOverloadMissAbortNeedsActivation pins the configuration error.
func TestOverloadMissAbortNeedsActivation(t *testing.T) {
	p := DefaultOverloadParams(OverloadMissStorm)
	p.PeriodicMiss = exec.MissAbort
	if _, err := RunOverload(p); err == nil {
		t.Fatal("MissAbort without PeriodicActivation should be rejected")
	}
}

// TestOverloadFaultPlanFuzz layers seeded fault plans (drops, jitter,
// cost overruns) on the transient scenario and requires, for every seed:
// a clean invariant net, and a fingerprint independent of the executive
// configuration (the two extremes of the matrix are compared).
func TestOverloadFaultPlanFuzz(t *testing.T) {
	jitterMax, err := faults.Parse("seed=1 jitter=0.3:2.5 overrun=0.4:1.5 drop=0.1")
	if err != nil {
		t.Fatal(err)
	}
	sawInterrupted := false
	for seed := int64(1); seed <= 8; seed++ {
		plan := *jitterMax
		plan.Seed = seed
		run := func(cfg int) *OverloadResult {
			p := DefaultOverloadParams(OverloadTransient)
			p.Events = 120
			p.Faults = &plan
			p.Kernel = overloadConfigs[cfg].kernel
			p.MaxGoroutines = overloadConfigs[cfg].goroutines
			p.PeriodicActivation = overloadConfigs[cfg].activation
			r, err := RunOverload(p)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if len(r.Violations) != 0 {
				t.Errorf("seed %d: invariant violations: %v", seed, r.Violations)
			}
			return r
		}
		a, b := run(0), run(len(overloadConfigs)-1)
		if a.Fingerprint != b.Fingerprint {
			t.Errorf("seed %d: fault schedule differs across configs: %#x vs %#x",
				seed, a.Fingerprint, b.Fingerprint)
		}
		if a.Interrupted > 0 {
			sawInterrupted = true
		}
	}
	if !sawInterrupted {
		t.Error("no seed produced an interrupted service: overruns not reaching the server")
	}
}

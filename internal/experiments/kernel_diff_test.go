package experiments

import (
	"testing"

	"rtsj/internal/exec"
	"rtsj/internal/gen"
	"rtsj/internal/sim"
)

// The execution tables (3 and 5) must not depend on which executive kernel
// realizes the framework: the direct (channel-free) kernel and the channel
// reference kernel must produce identical per-event records — and therefore
// byte-identical table output — over the paper's generated system sets.
func TestExecutionTablesKernelIndependent(t *testing.T) {
	for _, cfg := range []struct {
		key    string
		policy sim.ServerPolicy
	}{
		{"(2, 2)", sim.LimitedPollingServer},
		{"(1, 0)", sim.LimitedDeferrableServer},
	} {
		cfg := cfg
		t.Run(cfg.key+"/"+cfg.policy.String(), func(t *testing.T) {
			p := GenParams(cfg.key)
			systems := gen.Generate(p)
			if len(systems) > 3 {
				systems = systems[:3] // three systems per set keep the test fast
			}
			model := DefaultExecModel()
			// The full executive configuration matrix: both kernels, each
			// with looping and activation periodic threads (the latter
			// lowering them onto the activation dispatch path), and the
			// direct kernel's worker pool at two resident sizes. The
			// channel kernel with looping threads is the reference.
			variants := []struct {
				name          string
				kernel        exec.Kernel
				maxGoroutines int
				activation    bool
			}{
				{"channel", exec.ChannelKernel, 0, false},
				{"direct", exec.DirectKernel, 0, false},
				{"direct-pooled", exec.DirectKernel, 4, false},
				{"channel-activation", exec.ChannelKernel, 0, true},
				{"direct-activation", exec.DirectKernel, 4, true},
				{"direct-activation-w0", exec.DirectKernel, 0, true},
			}
			for i, base := range systems {
				sys := gen.WithServer(base, p, cfg.policy, 100)
				model.SysIndex = i

				ref := model
				ref.Kernel = variants[0].kernel
				co, err := RunExecution(sys, ref, p.Horizon())
				if err != nil {
					t.Fatal(err)
				}
				if len(co.Records) == 0 {
					t.Fatalf("system %d: no event records; workload is empty", i)
				}
				for _, v := range variants[1:] {
					m := model
					m.Kernel = v.kernel
					m.MaxGoroutines = v.maxGoroutines
					m.PeriodicActivation = v.activation
					do, err := RunExecution(sys, m, p.Horizon())
					if err != nil {
						t.Fatal(err)
					}
					if len(do.Records) != len(co.Records) {
						t.Fatalf("system %d: record counts differ: %s=%d channel=%d",
							i, v.name, len(do.Records), len(co.Records))
					}
					for k := range do.Records {
						d, c := do.Records[k], co.Records[k]
						if *d != *c {
							t.Fatalf("system %d record %d differs:\n%s: %+v\nchannel: %+v", i, k, v.name, *d, *c)
						}
					}
					a, b := co.Trace, do.Trace
					if len(a.Segments) != len(b.Segments) {
						t.Fatalf("system %d: segment counts differ: channel=%d %s=%d",
							i, len(a.Segments), v.name, len(b.Segments))
					}
					for k := range a.Segments {
						if a.Segments[k] != b.Segments[k] {
							t.Fatalf("system %d segment %d differs: channel=%+v %s=%+v",
								i, k, a.Segments[k], v.name, b.Segments[k])
						}
					}
				}

				// The metrics-only fast path (trace.Nop through the whole
				// executive) must not perturb the schedule: identical event
				// records, no trace.
				mo, err := RunExecutionMetrics(sys, model, p.Horizon())
				if err != nil {
					t.Fatal(err)
				}
				if mo.Trace != nil {
					t.Fatalf("system %d: metrics-only execution carries a trace", i)
				}
				if len(mo.Records) != len(co.Records) {
					t.Fatalf("system %d: metrics-only record count differs: %d vs %d",
						i, len(mo.Records), len(co.Records))
				}
				for k := range mo.Records {
					if *mo.Records[k] != *co.Records[k] {
						t.Fatalf("system %d record %d differs on the metrics-only path:\nnop:   %+v\ntrace: %+v",
							i, k, *mo.Records[k], *co.Records[k])
					}
				}
			}
		})
	}
}

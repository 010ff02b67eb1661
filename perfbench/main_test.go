package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"

	"rtsj/internal/exec"
	"rtsj/internal/experiments"
	"rtsj/internal/faults"
	"rtsj/internal/gen"
)

// TestMain lets the test binary serve as the calibration child, as the
// benchmark binary does.
func TestMain(m *testing.M) {
	if os.Getenv(calibratorEnv) != "" {
		os.Exit(serveCalibration(os.Stdin, os.Stdout))
	}
	os.Exit(m.Run())
}

// benchSpec is the part of BENCHMARK.json the tests compare against.
type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// result is the final JSON line of a run.
type result struct {
	Correct   *bool  `json:"correct"`
	Attempted *int64 `json:"attempted"`
	Failed    *int64 `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// invoke runs the benchmark in-process and decodes its last stdout line.
func invoke(t *testing.T, args ...string) (string, result) {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(append(args, "--out", t.TempDir()), &out, &errb); code != 0 {
		t.Fatalf("run %v: exit %d, stderr:\n%s", args, code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var raw map[string]json.RawMessage
	last := lines[len(lines)-1]
	if err := json.Unmarshal([]byte(last), &raw); err != nil {
		t.Fatalf("last line is not JSON: %q", last)
	}
	if len(raw) != 4 {
		t.Errorf("result keys %v, want exactly correct, attempted, failed, metrics", raw)
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		t.Fatal(err)
	}
	if r.Correct == nil || r.Attempted == nil || r.Failed == nil || r.Metrics == nil {
		t.Fatalf("result line misses a key: %s", last)
	}
	return out.String(), r
}

// TestEveryMetricPrints runs every workload at a tiny size, untraced and
// traced, and requires each run to print exactly the BENCHMARK.json
// metrics of its mode, each with its unit, and no failed unit.
func TestEveryMetricPrints(t *testing.T) {
	spec := readSpec(t)
	for _, w := range workloads {
		for _, mode := range []string{"0", "1"} {
			t.Run(w.name+"/trace="+mode, func(t *testing.T) {
				out, r := invoke(t, "--workload", w.name, "--seed", "5", "--seconds", "0.3", "--trace", mode, "--tiny")
				want := spec.EndToEnd
				if mode == "1" {
					want = spec.PerLayer
				}
				if len(r.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(r.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := r.Metrics[m.Name]
					if !ok || got.Value == nil {
						t.Errorf("metric %s missing", m.Name)
						continue
					}
					if got.Unit != m.Unit {
						t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
					}
					if !strings.Contains(out, m.Name) {
						t.Errorf("metric %s not in the printed table", m.Name)
					}
				}
				if !*r.Correct || *r.Failed != 0 || *r.Attempted < 1 {
					t.Errorf("correct %v, %d of %d failed:\n%s", *r.Correct, *r.Failed, *r.Attempted, out)
				}
			})
		}
	}
}

// TestPinnedDigests runs every workload at its default seed and full size:
// the pinned digests hold at this commit, and a deliberately wrong pin
// fails every unit instead of passing.
func TestPinnedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size workloads")
	}
	good := pinned
	defer func() { pinned = good }()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			args := []string{"--workload", w.name, "--seed", strconv.FormatInt(defaultSeed, 10), "--seconds", "0.2", "--trace", "0"}

			pinned = good
			out, r := invoke(t, args...)
			if !*r.Correct || *r.Failed != 0 || !strings.Contains(out, "pinned digest") {
				t.Fatalf("pinned run: correct %v, %d of %d failed:\n%s", *r.Correct, *r.Failed, *r.Attempted, out)
			}

			pinned = map[string]uint64{w.name: good[w.name] ^ 1}
			out, r = invoke(t, args...)
			if *r.Correct || *r.Failed != *r.Attempted || *r.Attempted < 1 {
				t.Fatalf("wrong pin passed: correct %v, %d of %d failed:\n%s", *r.Correct, *r.Failed, *r.Attempted, out)
			}
		})
	}
}

// TestAttributeTraces applies the innermost-frame rule to a stack listing
// in the format of `go tool pprof -traces`.
func TestAttributeTraces(t *testing.T) {
	const text = `File: perfbench
Type: cpu
-----------+-------------------------------------------------------
     300ms   runtime.memmove
             rtsj/internal/sim.(*engine).step (inline)
             rtsj/internal/gen.SystemAt
             main.main
-----------+-------------------------------------------------------
     100ms   runtime.gcBgMarkWorker
             runtime.goexit
-----------+-------------------------------------------------------
      0.1s   main.tracedRange
             runtime.goexit
-----------+-------------------------------------------------------
`
	got, err := attributeTraces(text)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"sim": 0.6, "runtime": 0.2, "bench": 0.2}
	if len(got) != len(want) {
		t.Fatalf("shares %v, want %v", got, want)
	}
	for k, v := range want {
		if d := got[k] - v; d > 1e-9 || d < -1e-9 {
			t.Errorf("share %s = %v, want %v", k, got[k], v)
		}
	}
}

// TestRealizeRefusesUnreplicatedModel keeps the exec replica honest: a
// model field realize does not replicate is an error, not a silently
// different executive.
func TestRealizeRefusesUnreplicatedModel(t *testing.T) {
	spec := campaignSpec(config{seed: 1983, tiny: true})
	p := pointParams(spec, 0)
	sys := gen.WithServer(gen.SystemAt(p, 0), p, spec.Policy, 100)
	base := experiments.DefaultExecModel()
	if _, err := realize(sys, base, p.Horizon(), nil, &spanList{}); err != nil {
		t.Fatalf("default model: %v", err)
	}
	for name, edit := range map[string]func(*experiments.ExecModel){
		"PeriodicActivation":  func(m *experiments.ExecModel) { m.PeriodicActivation = true },
		"Faults":              func(m *experiments.ExecModel) { m.Faults = &faults.Plan{} },
		"PeriodicMiss":        func(m *experiments.ExecModel) { m.PeriodicMiss = exec.MissAbort },
		"ServerMaxPending":    func(m *experiments.ExecModel) { m.ServerMaxPending = 4 },
		"ClampServerCapacity": func(m *experiments.ExecModel) { m.ClampServerCapacity = true },
	} {
		m := base
		edit(&m)
		if _, err := realize(sys, m, p.Horizon(), nil, &spanList{}); err == nil {
			t.Errorf("realize accepted a model with %s set", name)
		}
	}
}

// TestCalibrator runs the calibration child: every kernel returns the same
// checksum and a positive slowdown, and closing the child waits for it to
// exit.
func TestCalibrator(t *testing.T) {
	c, err := startCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		s, err := c.measure()
		if err != nil {
			t.Fatal(err)
		}
		if s.wall <= 0 || s.cpu <= 0 {
			t.Errorf("slowdown %+v, want positive", s)
		}
	}
	c.close()
	if c.cmd.ProcessState == nil || !c.cmd.ProcessState.Exited() {
		t.Errorf("calibration child has not exited: %v", c.cmd.ProcessState)
	}
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync/atomic"
	"time"

	"rtsj/internal/core"
	"rtsj/internal/exec"
	"rtsj/internal/experiments"
	"rtsj/internal/gen"
	"rtsj/internal/harness"
	"rtsj/internal/metrics"
	"rtsj/internal/obs"
	"rtsj/internal/rtime"
	"rtsj/internal/rtsjvm"
	"rtsj/internal/sim"
	"rtsj/internal/trace"
)

// layerMetrics are the per-layer metrics every traced run reports, in
// BENCHMARK.json order. A layer the workload does not reach reports 0.
var layerMetrics = []struct{ name, unit string }{
	{"gen.us_per_system", "us"},
	{"sim.us_per_system", "us"},
	{"sim.ns_per_job", "ns"},
	{"sim.recycle_us_per_system", "us"},
	{"metrics.us_per_system", "us"},
	{"harness.parallel_efficiency", "ratio"},
	{"shard.wire_us_per_request", "us"},
	{"shard.bytes_per_request", "bytes"},
	{"rtsjvm.build_us_per_system", "us"},
	{"core.build_us_per_system", "us"},
	{"exec.run_us_per_system", "us"},
	{"exec.shutdown_us_per_system", "us"},
	{"exec.context_switches_per_unit", "count"},
	{"exec.preemptions_per_unit", "count"},
	{"exec.ns_per_context_switch", "ns"},
	{"exec.ready_max", "count"},
	{"exec.timer_heap_max", "count"},
	{"runtime.allocs_per_unit", "count"},
	{"runtime.bytes_per_unit", "bytes"},
	{"runtime.gc_cpu_share", "ratio"},
	{"bench.trace_overhead", "ratio"},
}

// tracedRun is the state of one traced invocation.
type tracedRun struct {
	cfg config
	rec *recorder
	// plainUPS is the untraced throughput of the same run.
	plainUPS float64
	layers   map[string]float64
	// results collects every pass of every phase for the output check.
	results []iterResult
	// extraAttempted and extraFailed count checks beyond the passes (the
	// exec replica's record comparisons).
	extraAttempted, extraFailed int64
	notes                       []string
}

// part is share of the run's seconds.
func (t *tracedRun) part(share float64) time.Duration {
	return time.Duration(share * t.cfg.seconds * float64(time.Second))
}

// absorb keeps a phase's passes for the output check.
func (t *tracedRun) absorb(ph phase) { t.results = append(t.results, ph.results...) }

// overhead records bench.trace_overhead from the traced phase.
func (t *tracedRun) overhead(ph phase) {
	t.layers["bench.trace_overhead"] = t.plainUPS / ph.unitsPerSecond()
}

// parallelEfficiency runs pass on one CPU (GOMAXPROCS 1, one harness
// worker) for a share of the run and records harness.parallel_efficiency:
// the untraced throughput with every CPU over that single-CPU throughput,
// per CPU.
func (t *tracedRun) parallelEfficiency(pass func(lat *[]time.Duration) iterResult) {
	n := runtime.GOMAXPROCS(1)
	harness.SetWorkers(1)
	one := timed(pass, t.part(0.15))
	runtime.GOMAXPROCS(n)
	harness.SetWorkers(n)
	t.absorb(one)
	t.layers["harness.parallel_efficiency"] = t.plainUPS / (one.unitsPerSecond() * float64(n))
}

// us is a summed duration per unit, in microseconds.
func us(d time.Duration, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / 1e3 / float64(n)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// gcCPU reads the runtime's cumulative GC and total CPU estimates.
func gcCPU() (gc, all float64) {
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	rtmetrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// runTraced sets the workload up once, measures it untraced (throughput,
// allocations, GC CPU), runs the workload's traced phases, checks every
// pass, and writes the span file.
func runTraced(w workload, cfg config) (*report, error) {
	inst, err := w.setup(cfg)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()
	t := &tracedRun{cfg: cfg, rec: &recorder{}, layers: map[string]float64{}}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, all0 := gcCPU()
	plain := timed(inst.iterate, t.part(0.3))
	runtime.ReadMemStats(&m1)
	gc1, all1 := gcCPU()
	t.absorb(plain)
	t.plainUPS = plain.unitsPerSecond()
	t.layers["runtime.allocs_per_unit"] = float64(m1.Mallocs-m0.Mallocs) / float64(plain.units)
	t.layers["runtime.bytes_per_unit"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(plain.units)
	if all1 > all0 {
		t.layers["runtime.gc_cpu_share"] = (gc1 - gc0) / (all1 - all0)
	}

	if err := inst.traced(t); err != nil {
		return nil, err
	}

	rep := &report{metrics: make([]metric, 0, len(layerMetrics))}
	var notes []string
	rep.attempted, rep.failed, notes = check(w, cfg, inst, t.results)
	rep.attempted += t.extraAttempted
	rep.failed += t.extraFailed
	rep.notes = append(rep.notes, notes...)
	rep.notes = append(rep.notes, t.notes...)
	rep.notes = append(rep.notes, t.rec.selfTable()...)
	path := filepath.Join(cfg.out, "spans-"+w.name+".json")
	if err := t.rec.writeChrome(path); err != nil {
		return nil, fmt.Errorf("span file: %w", err)
	}
	rep.notes = append(rep.notes, "  spans written to "+path+" (Chrome trace_event JSON; opens in Perfetto)")
	for _, m := range layerMetrics {
		rep.metrics = append(rep.metrics, metric{m.name, t.layers[m.name], m.unit})
	}
	return rep, nil
}

// spanList collects one request's spans on one goroutine.
type spanList struct {
	rid, parent int64
	spans       []span
}

// since closes a span named name that began at t0 and returns its end.
func (l *spanList) since(name spanName, t0 int64) int64 {
	end := now()
	l.spans = append(l.spans, span{parent: l.parent, rid: l.rid, name: name, start: t0, end: end})
	return end
}

// --- sim_campaign ------------------------------------------------------------

func (x *simCampaign) traced(t *tracedRun) error {
	t.parallelEfficiency(x.iterate)

	// CPU profile of the untraced workload, for the attribution cross-check.
	path := filepath.Join(t.cfg.out, "cpu-sim_campaign.pb.gz")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("cpu profile: %w", err)
	}
	profiled := timed(x.iterate, t.part(0.2))
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	t.absorb(profiled)
	shares, err := attributeProfile(path)
	if err != nil {
		return err
	}

	// Traced phase: the same coordinator, its session now served by
	// serveTraced, which times each layer call. Both ends count requests in
	// the same order, so a request's id is its sequence number.
	x.stopSession()
	var jobs atomic.Int64
	x.startSession(serveTraced(t.rec, &jobs))
	rid := int64(0)
	x.coord.onResponse = func(sent, done time.Time) {
		rid++
		t.rec.add(span{id: requestSpanID(rid, 0), rid: rid, name: sShardRequest, start: int64(sent.Sub(epoch)), end: int64(done.Sub(epoch))})
	}
	tr := timed(x.iterate, t.part(0.3))
	t.absorb(tr)
	t.overhead(tr)
	wire := x.coord.bytes
	// The server records a request's spans after answering it; wait for
	// it to return before reading them.
	x.stopSession()
	x.startSession(experiments.ServeShard)

	systems := t.rec.total(sGenSystem).n
	req := t.rec.total(sShardRequest)
	simRun := t.rec.total(sSimRun).dur
	t.layers["gen.us_per_system"] = us(t.rec.total(sGenSystem).dur, systems)
	t.layers["sim.us_per_system"] = us(simRun, systems)
	t.layers["sim.ns_per_job"] = ratio(simRun.Nanoseconds(), jobs.Load())
	t.layers["sim.recycle_us_per_system"] = us(t.rec.total(sSimRecycle).dur, systems)
	t.layers["metrics.us_per_system"] = us(t.rec.total(sMetricsAdd).dur+t.rec.total(sMetricsMerge).dur, systems)
	t.layers["shard.wire_us_per_request"] = us(req.dur-t.rec.total(sHarnessReduce).dur, req.n)
	t.layers["shard.bytes_per_request"] = ratio(wire, req.n)

	spanShares := t.rec.layerShares()
	t.notes = append(t.notes, "  attribution of sim_campaign: span self time (traced phase) vs CPU profile (untraced, innermost rtsj/internal frame):")
	t.notes = append(t.notes, fmt.Sprintf("    %-12s %8s %8s", "layer", "spans", "profile"))
	for _, l := range unionKeys(spanShares, shares) {
		t.notes = append(t.notes, fmt.Sprintf("    %-12s %7.1f%% %7.1f%%", l, 100*spanShares[l], 100*shares[l]))
	}
	return nil
}

func unionKeys(a, b map[string]float64) []string {
	seen := map[string]bool{}
	var out []string
	for _, m := range []map[string]float64{a, b} {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	sort.Strings(out)
	return out
}

// arrivalReader notes when the last read returned data: the arrival of a
// request at the shard.
type arrivalReader struct {
	r    io.Reader
	last int64
}

func (a *arrivalReader) Read(p []byte) (int, error) {
	n, err := a.r.Read(p)
	if n > 0 {
		a.last = now()
	}
	return n, err
}

// serveTraced returns a shard server speaking experiments.ServeShard's
// protocol whose range computation makes RunCampaignRange's per-system
// calls (gen.SystemAt + WithServer, RunSimulationMetrics, SimEvents +
// AddSystem, Recycle, Merge) itself, timing each. The coordinator merges
// its answers into a curve that must equal the program's.
func serveTraced(rec *recorder, jobs *atomic.Int64) func(r io.Reader, w io.Writer) error {
	return func(r io.Reader, w io.Writer) error {
		ar := &arrivalReader{r: r}
		dec := json.NewDecoder(bufio.NewReader(ar))
		bw := bufio.NewWriter(w)
		enc := json.NewEncoder(bw)
		for rid := int64(1); ; rid++ {
			var req experiments.ShardRequest
			if err := dec.Decode(&req); err == io.EOF {
				return nil
			} else if err != nil {
				return fmt.Errorf("shard: malformed request: %w", err)
			}
			parent := requestSpanID(rid, 0)
			decoded := now()
			resp := experiments.ShardResponse{V: experiments.ShardProtocolVersion, Point: req.Point, Lo: req.Lo, Hi: req.Hi}
			reduce := &spanList{rid: rid, parent: requestSpanID(rid, 2)}
			var err error
			if req.V != experiments.ShardProtocolVersion {
				err = fmt.Errorf("shard: protocol version %d, want %d", req.V, experiments.ShardProtocolVersion)
			} else {
				var part metrics.Partial
				part, err = tracedRange(req.Spec, req.Point, req.Lo, req.Hi, reduce, jobs)
				resp.Partial = &part
			}
			computed := now()
			if err != nil {
				resp.Partial, resp.Error = nil, err.Error()
			}
			if werr := enc.Encode(resp); werr != nil {
				return werr
			}
			if werr := bw.Flush(); werr != nil {
				return werr
			}
			batch := append(reduce.spans,
				span{id: requestSpanID(rid, 1), parent: parent, rid: rid, name: sShardDecode, start: ar.last, end: decoded},
				span{id: requestSpanID(rid, 2), parent: parent, rid: rid, name: sHarnessReduce, start: decoded, end: computed},
				span{id: requestSpanID(rid, 3), parent: parent, rid: rid, name: sShardEncode, start: computed, end: now()})
			rec.add(batch...)
			if err != nil {
				return err
			}
		}
	}
}

// tracedRange is RunCampaignRange with every layer call timed into l.
func tracedRange(s experiments.CampaignSpec, point, lo, hi int, l *spanList, jobs *atomic.Int64) (metrics.Partial, error) {
	if err := s.Validate(); err != nil {
		return metrics.Partial{}, err
	}
	if point < 0 || point >= len(s.Points) || lo < 0 || hi > s.Systems || lo > hi {
		return metrics.Partial{}, fmt.Errorf("campaign: point %d range [%d, %d) out of range", point, lo, hi)
	}
	p := pointParams(s, point)
	horizon := p.Horizon()
	type one struct {
		part  metrics.Partial
		spans spanList
	}
	return harness.ReduceN(0, hi-lo, metrics.Partial{},
		func(k int) (one, error) {
			o := one{spans: spanList{rid: l.rid, parent: l.parent, spans: make([]span, 0, 5)}}
			t := now()
			sys := gen.WithServer(gen.SystemAt(p, lo+k), p, s.Policy, 100)
			t = o.spans.since(sGenSystem, t)
			r, err := experiments.RunSimulationMetrics(sys, horizon)
			if err != nil {
				return o, err
			}
			t = o.spans.since(sSimRun, t)
			o.part.AddSystem(experiments.SimEvents(r))
			o.spans.since(sMetricsAdd, t)
			jobs.Add(int64(len(r.Jobs)))
			t = now()
			r.Recycle()
			o.spans.since(sSimRecycle, t)
			return o, nil
		},
		func(acc metrics.Partial, _ int, o one) metrics.Partial {
			t := now()
			acc.Merge(o.part)
			o.spans.since(sMetricsMerge, t)
			l.spans = append(l.spans, o.spans.spans...)
			return acc
		})
}

// --- exec_campaign -----------------------------------------------------------

func (x *execCampaign) traced(t *tracedRun) error {
	t.parallelEfficiency(x.iterate)

	reg := obs.NewRegistry()
	st := exec.NewStats(reg)
	tr := timed(func(lat *[]time.Duration) iterResult { return x.tracedPass(t.rec, st, lat) }, t.part(0.4))
	t.absorb(tr)
	t.overhead(tr)

	systems := t.rec.total(sGenSystem).n
	run := t.rec.total(sExecRun).dur
	v := reg.Map()
	t.layers["gen.us_per_system"] = us(t.rec.total(sGenSystem).dur, systems)
	t.layers["metrics.us_per_system"] = us(t.rec.total(sMetricsAdd).dur+t.rec.total(sMetricsMerge).dur, systems)
	t.layers["rtsjvm.build_us_per_system"] = us(t.rec.total(sRtsjvmBuild).dur, systems)
	t.layers["core.build_us_per_system"] = us(t.rec.total(sCoreBuild).dur, systems)
	t.layers["exec.run_us_per_system"] = us(run, systems)
	t.layers["exec.shutdown_us_per_system"] = us(t.rec.total(sExecShutdown).dur, systems)
	t.layers["exec.context_switches_per_unit"] = ratio(v["exec.context_switches"], systems)
	t.layers["exec.preemptions_per_unit"] = ratio(v["exec.preemptions"], systems)
	t.layers["exec.ns_per_context_switch"] = ratio(run.Nanoseconds(), v["exec.context_switches"])
	t.layers["exec.ready_max"] = float64(v["exec.ready_max"])
	t.layers["exec.timer_heap_max"] = float64(v["exec.timer_heap_max"])

	// The replica must reproduce RunExecutionMetrics's event records.
	per := min(16, x.spec.Systems)
	for point := range x.spec.Points {
		p := pointParams(x.spec, point)
		for k := 0; k < per; k++ {
			t.extraAttempted++
			if err := x.compareReplica(p, k); err != nil {
				t.extraFailed++
				t.notes = append(t.notes, fmt.Sprintf("  FAILED replica check: point %d: %v", point, err))
			}
		}
	}
	t.notes = append(t.notes, fmt.Sprintf("  replica check: %d systems realized both ways", t.extraAttempted))
	return nil
}

// compareReplica realizes system k both through realize and through
// RunExecutionMetrics and requires identical event records.
func (x *execCampaign) compareReplica(p gen.Params, k int) error {
	sys := gen.WithServer(gen.SystemAt(p, k), p, x.spec.Policy, 100)
	m := x.model
	m.SysIndex = k
	want, err := experiments.RunExecutionMetrics(sys, m, p.Horizon())
	if err != nil {
		return err
	}
	got, err := realize(sys, m, p.Horizon(), nil, &spanList{})
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(got, want.Records) {
		return fmt.Errorf("system %d: replica records differ from RunExecutionMetrics's", k)
	}
	return nil
}

// tracedPass is one exec_campaign pass with every system realized by
// realize. Each system is a request; its spans share its id.
func (x *execCampaign) tracedPass(rec *recorder, st *exec.Stats, lat *[]time.Duration) iterResult {
	r := iterResult{units: len(x.spec.Points) * x.spec.Systems}
	parts := make([]metrics.Partial, len(x.spec.Points))
	for point := range x.spec.Points {
		p := pointParams(x.spec, point)
		horizon := p.Horizon()
		reduceID := rec.newID()
		t0 := now()
		type one struct {
			part  metrics.Partial
			spans spanList
			took  time.Duration
		}
		part, err := harness.ReduceN(0, x.spec.Systems, metrics.Partial{},
			func(k int) (one, error) {
				began := now()
				sys := gen.WithServer(gen.SystemAt(p, k), p, x.spec.Policy, 100)
				o := one{spans: spanList{rid: rec.newID(), parent: reduceID, spans: make([]span, 0, 9+2*len(sys.Aperiodics))}}
				o.spans.since(sGenSystem, began)
				m := x.model
				m.SysIndex = k
				recs, err := realize(sys, m, horizon, st, &o.spans)
				if err != nil {
					return o, fmt.Errorf("system %d: %w", k, err)
				}
				t := now()
				o.part.AddSystem(metrics.FromRecords(recs))
				o.spans.since(sMetricsAdd, t)
				o.took = time.Duration(now() - began)
				return o, nil
			},
			func(acc metrics.Partial, _ int, o one) metrics.Partial {
				*lat = append(*lat, o.took)
				t := now()
				acc.Merge(o.part)
				o.spans.since(sMetricsMerge, t)
				rec.add(o.spans.spans...)
				return acc
			})
		rec.add(span{id: reduceID, name: sHarnessReduce, start: t0, end: now()})
		if err != nil {
			r.err = fmt.Errorf("point %d: %w", point, err)
			return r
		}
		parts[point] = part
	}
	r.digest = digestPartials(parts)
	return r
}

// realize is RunExecutionMetrics for a deferrable-server system, made
// through the public rtsjvm and core constructors so that each layer's
// calls can be timed into l. It takes the model's executive configuration
// (kernel, pool, CPUs, migration) and refuses any model field it does not
// replicate, so a change to DefaultExecModel fails the traced run instead
// of timing another executive. The traced run compares its records with
// RunExecutionMetrics's (compareReplica).
func realize(sys sim.System, m experiments.ExecModel, horizon rtime.Time, st *exec.Stats, l *spanList) ([]*core.EventRecord, error) {
	if sys.Server == nil || sys.Server.Policy != sim.DeferrableServer {
		return nil, fmt.Errorf("realize: needs a deferrable server")
	}
	switch {
	case m.PeriodicActivation:
		return nil, fmt.Errorf("realize: PeriodicActivation is not replicated")
	case m.Faults != nil:
		return nil, fmt.Errorf("realize: Faults is not replicated")
	case m.PeriodicMiss != exec.MissSkip:
		return nil, fmt.Errorf("realize: PeriodicMiss %v is not replicated", m.PeriodicMiss)
	case m.ServerMaxPending != 0:
		return nil, fmt.Errorf("realize: ServerMaxPending is not replicated")
	case m.ClampServerCapacity:
		return nil, fmt.Errorf("realize: ClampServerCapacity is not replicated")
	}
	t := now()
	opts := exec.Options{Kernel: m.Kernel, MaxGoroutines: m.MaxGoroutines, CPUs: m.CPUs, Migration: m.Migration, Stats: st}
	vm := rtsjvm.NewVMSink(trace.Nop{}, m.Overheads, opts)
	t = l.since(sRtsjvmBuild, t)
	spec := *sys.Server
	name := spec.Name
	if name == "" {
		name = "DS"
	}
	srv := core.NewDeferrableTaskServer(vm, name, spec.Priority, core.NewTaskServerParameters(0, spec.Capacity, spec.Period))
	t = l.since(sCoreBuild, t)
	for i := range sys.Periodics {
		pt := sys.Periodics[i]
		pp := &rtsjvm.PeriodicParameters{Start: pt.Offset, Period: pt.Period, Cost: pt.Cost, Deadline: pt.Deadline, Miss: m.PeriodicMiss}
		vm.NewRealtimeThread(pt.Name, pt.Priority, pp, func(r *rtsjvm.RTC) {
			for {
				r.Consume(pt.Cost)
				r.WaitForNextPeriod()
			}
		})
	}
	t = l.since(sRtsjvmBuild, t)
	for i := range sys.Aperiodics {
		a := sys.Aperiodics[i]
		jn := a.Name
		if jn == "" {
			jn = sim.AperiodicName(i)
		}
		actual := a.Cost
		if m.CostNoise > 0 {
			u := gen.Noise(m.NoiseSeed, m.SysIndex, i)
			actual = rtime.Duration(float64(actual) * (1 + u*m.CostNoise))
		}
		h := core.NewServableAsyncEventHandler(srv, jn, a.DeclaredCost()).SetActualCost(actual)
		e := core.NewServableAsyncEvent(vm, jn)
		e.AddServableHandler(h)
		t = l.since(sCoreBuild, t)
		vm.NewOneShotTimer(a.Release, e, jn).Start()
		t = l.since(sRtsjvmBuild, t)
	}
	err := vm.Run(horizon)
	if err == nil {
		err = vm.Exec().CheckInvariants()
	}
	t = l.since(sExecRun, t)
	vm.Shutdown()
	l.since(sExecShutdown, t)
	if err != nil {
		return nil, err
	}
	return srv.Records(), nil
}

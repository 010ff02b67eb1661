package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"time"

	"rtsj/internal/experiments"
	"rtsj/internal/gen"
	"rtsj/internal/harness"
	"rtsj/internal/metrics"
	"rtsj/internal/rtime"
	"rtsj/internal/sim"
)

// workload is one named benchmark input. Why each exists, the layers it
// stresses and the ones it bypasses are recorded in LAYERS.md.
type workload struct {
	name string
	// setup builds the inputs, starts any sessions and runs one warm-up
	// pass.
	setup func(cfg config) (instance, error)
}

var workloads = []workload{
	{name: "sim_campaign", setup: func(cfg config) (instance, error) { return newSimCampaign(cfg) }},
	{name: "exec_campaign", setup: func(cfg config) (instance, error) { return newExecCampaign(cfg) }},
}

// defaultSeed is the campaign seed of the program's own defaults; the
// workloads' outputs at this seed are pinned. Units of work are systems.
var defaultSeed = experiments.DefaultCampaignSpec().Seed

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

// warmUp runs the warm-up pass of a fresh instance and fails set-up if it
// errors.
func warmUp(inst instance) (instance, error) {
	var lat []time.Duration
	if r := inst.iterate(&lat); r.err != nil {
		inst.close()
		return nil, fmt.Errorf("warm-up: %w", r.err)
	}
	return inst, nil
}

func digestString(s string) uint64 {
	h := fnv.New64a()
	_, _ = io.WriteString(h, s) // hash writes never fail
	return h.Sum64()
}

func digestPartials(parts []metrics.Partial) uint64 {
	return digestString(fmt.Sprintf("%+v", parts))
}

// campaignSpec is the stock DS utilization sweep at seed, shrunk for tests.
func campaignSpec(cfg config) experiments.CampaignSpec {
	s := experiments.DefaultCampaignSpec()
	s.Seed = cfg.seed
	if cfg.tiny {
		s.Systems = 8
	}
	return s
}

// pointParams maps one sweep point of a campaign onto its generation
// parameters, as the campaign itself does (the per-point seed offset keeps
// the points' populations independent). The traced sim_campaign run
// checks that its curve, built from systems drawn here, equals the
// program's, so this copy cannot drift silently.
func pointParams(s experiments.CampaignSpec, point int) gen.Params {
	return gen.Params{
		TaskDensity:    s.Points[point],
		AverageCost:    s.AverageCost,
		StdDeviation:   s.StdDeviation,
		ServerCapacity: s.ServerCapacity,
		ServerPeriod:   s.ServerPeriod,
		Seed:           s.Seed + int64(point)*0x1000003,
		HorizonPeriods: s.HorizonPeriods,
	}
}

// --- sim_campaign ------------------------------------------------------------

// simCampaign runs the campaign through the sharded coordinator over an
// in-process pipe session served in this process. A request is one shard
// range. One session computes each range with every harness worker, like
// one shard process on this machine; with several in-process sessions the
// harness's process-wide worker budget would let each range's latency
// flip with whether its session won a helper worker.
type simCampaign struct {
	spec  experiments.CampaignSpec
	coord *coordPipe
	reqW  *io.PipeWriter
	respR *io.PipeReader
	// served is closed when the session's server has returned.
	served chan struct{}
}

// coordPipe is the coordinator's end of the session. Requests on a session
// are sequential, so it times each one from the write of its line to the
// read that completes the response line, and counts the bytes both ways.
type coordPipe struct {
	r     io.Reader
	w     io.Writer
	sent  time.Time
	lat   []time.Duration
	bytes int64
	// onResponse, when set, sees every completed request.
	onResponse func(sent, done time.Time)
}

func (c *coordPipe) Write(p []byte) (int, error) {
	c.sent = time.Now()
	c.bytes += int64(len(p))
	return c.w.Write(p)
}

func (c *coordPipe) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.bytes += int64(n)
	for _, b := range p[:n] {
		if b == '\n' {
			done := time.Now()
			c.lat = append(c.lat, done.Sub(c.sent))
			if c.onResponse != nil {
				c.onResponse(c.sent, done)
			}
			break
		}
	}
	return n, err
}

// startSession opens the pipe session, served by serve on its own
// goroutine until the coordinator closes its request stream.
func (x *simCampaign) startSession(serve func(r io.Reader, w io.Writer) error) {
	reqR, reqW := io.Pipe()
	respR, respW := io.Pipe()
	x.coord, x.reqW, x.respR = &coordPipe{r: respR, w: reqW}, reqW, respR
	x.served = make(chan struct{})
	go func() {
		defer close(x.served)
		err := serve(reqR, respW)
		respW.CloseWithError(err)
		reqR.CloseWithError(err)
	}()
}

// stopSession closes the session and waits for its server to return.
func (x *simCampaign) stopSession() {
	x.reqW.Close()
	x.respR.Close()
	<-x.served
}

func newSimCampaign(cfg config) (instance, error) {
	x := &simCampaign{spec: campaignSpec(cfg)}
	x.startSession(experiments.ServeShard)
	return warmUp(x)
}

func (x *simCampaign) iterate(lat *[]time.Duration) iterResult {
	curve, err := experiments.RunCampaignSharded(x.spec, []experiments.ShardConn{{Name: "shard", R: x.coord, W: x.coord}}, 0)
	*lat = append(*lat, x.coord.lat...)
	x.coord.lat = x.coord.lat[:0]
	r := iterResult{units: len(x.spec.Points) * x.spec.Systems, err: err}
	if err == nil {
		r.digest = digestString(curve.Format())
	}
	return r
}

// reference runs the campaign in-process (RunCampaignRange per point, no
// wire); the sharded curve must equal it.
func (x *simCampaign) reference() (uint64, error) {
	curve, err := experiments.RunCampaign(x.spec)
	if err != nil {
		return 0, err
	}
	return digestString(curve.Format()), nil
}

func (x *simCampaign) close() { x.stopSession() }

// --- exec_campaign -----------------------------------------------------------

// execCampaign realizes the campaign population on the Task Server
// Framework (DS server, the calibrated execution model, one
// goroutine-per-thread direct-kernel executive per system, M=1), fanned out
// with the harness reducer. A request is one system.
type execCampaign struct {
	spec  experiments.CampaignSpec
	model experiments.ExecModel
	chunk int
	// first holds the per-chunk partials of the first pass, the ranges the
	// cross-configuration check compares.
	first []metrics.Partial
}

func newExecCampaign(cfg config) (instance, error) {
	spec := campaignSpec(cfg)
	x := &execCampaign{spec: spec, model: experiments.DefaultExecModel(), chunk: (spec.Systems + 7) / 8}
	// Warm up on one sweep point: a whole campaign would make set-up
	// several times longer than the other workloads'.
	var lat []time.Duration
	chunks := make([]metrics.Partial, x.chunksPerPoint())
	if _, err := x.runPoint(len(spec.Points)/2, &lat, chunks); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return x, nil
}

func (x *execCampaign) chunksPerPoint() int { return (x.spec.Systems + x.chunk - 1) / x.chunk }

// execSystem realizes system k of one sweep point and returns its partial.
func execSystem(p gen.Params, policy sim.ServerPolicy, m experiments.ExecModel, k int, horizon rtime.Time) (metrics.Partial, error) {
	sys := gen.WithServer(gen.SystemAt(p, k), p, policy, 100)
	m.SysIndex = k
	o, err := experiments.RunExecutionMetrics(sys, m, horizon)
	if err != nil {
		return metrics.Partial{}, fmt.Errorf("system %d: %w", k, err)
	}
	var part metrics.Partial
	part.AddSystem(experiments.ExecEvents(o))
	return part, nil
}

// runPoint realizes every system of one sweep point, folding each into its
// chunk's partial, and returns the point's partial.
func (x *execCampaign) runPoint(point int, lat *[]time.Duration, chunks []metrics.Partial) (metrics.Partial, error) {
	p := pointParams(x.spec, point)
	horizon := p.Horizon()
	type one struct {
		part metrics.Partial
		took time.Duration
	}
	_, err := harness.ReduceN(0, x.spec.Systems, struct{}{},
		func(k int) (one, error) {
			t0 := time.Now()
			part, err := execSystem(p, x.spec.Policy, x.model, k, horizon)
			return one{part, time.Since(t0)}, err
		},
		func(acc struct{}, k int, o one) struct{} {
			*lat = append(*lat, o.took)
			chunks[k/x.chunk].Merge(o.part)
			return acc
		})
	var total metrics.Partial
	for _, c := range chunks {
		total.Merge(c)
	}
	return total, err
}

func (x *execCampaign) iterate(lat *[]time.Duration) iterResult {
	r := iterResult{units: len(x.spec.Points) * x.spec.Systems}
	per := x.chunksPerPoint()
	chunks := make([]metrics.Partial, len(x.spec.Points)*per)
	parts := make([]metrics.Partial, len(x.spec.Points))
	for point := range x.spec.Points {
		var err error
		parts[point], err = x.runPoint(point, lat, chunks[point*per:(point+1)*per])
		if err != nil {
			r.err = fmt.Errorf("point %d: %w", point, err)
			return r
		}
	}
	r.digest = digestPartials(parts)
	if x.first == nil {
		x.first = chunks
	}
	return r
}

// reference re-realizes one sampled chunk per sweep point on another
// executive configuration the repository proves schedule-identical
// (activation-driven periodic threads on a bounded worker pool) and
// requires each to equal the first pass's chunk; the first pass's digest
// is then the reference.
func (x *execCampaign) reference() (uint64, error) {
	if x.first == nil {
		return 0, fmt.Errorf("no successful pass to compare")
	}
	alt := x.model
	alt.PeriodicActivation = true
	alt.MaxGoroutines = 4
	per := x.chunksPerPoint()
	parts := make([]metrics.Partial, len(x.spec.Points))
	for point := range x.spec.Points {
		c := point % per
		lo, hi := c*x.chunk, min((c+1)*x.chunk, x.spec.Systems)
		p := pointParams(x.spec, point)
		var got metrics.Partial
		for k := lo; k < hi; k++ {
			part, err := execSystem(p, x.spec.Policy, alt, k, p.Horizon())
			if err != nil {
				return 0, err
			}
			got.Merge(part)
		}
		if want := x.first[point*per+c]; got != want {
			return 0, fmt.Errorf("point %d systems [%d, %d): activation/pooled partial %v, measured %v", point, lo, hi, got, want)
		}
		for _, ch := range x.first[point*per : (point+1)*per] {
			parts[point].Merge(ch)
		}
	}
	return digestPartials(parts), nil
}

func (x *execCampaign) close() {}

package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
)

// setupRepeats is how often a run sets its workload up, half before the
// timed phase and half after it; setup_s is the median. One slow first
// set-up (page faults, heap growth) cannot dominate it, and the set-ups
// sample the host's speed at both ends of the run, not at its start alone.
const setupRepeats = 16

// A timed phase is cut into windowsPerRun windows of slicesPerWindow
// slices. In the end-to-end run every slice is followed by a calibration
// (calibrate.go), so each slice has its own measure of the host's speed.
// Throughput and CPU per unit are medians over the slices; request
// latencies, each scaled by its slice's slowdown, are pooled per window,
// and p50 and p90 are medians over the windows of each window's quantiles.
// Medians keep a burst of load from a neighbouring process out of the
// reported figures. Latencies are kept for one window at a time, so the
// benchmark's own memory does not grow with the run's length and show in
// peak_rss_mb.
const (
	windowsPerRun   = 8
	slicesPerWindow = 6
)

// iterResult is one completed pass of a workload.
type iterResult struct {
	// units is the work the pass attempted, in systems.
	units int
	// digest fingerprints the pass's output; every pass must reproduce
	// the expected digest.
	digest uint64
	// bad names a workload-local output check that failed, empty if none.
	bad string
	err error
}

// instance is one set-up workload, ready to iterate.
type instance interface {
	// iterate runs the workload once and appends each request's host
	// latency to lat.
	iterate(lat *[]time.Duration) iterResult
	// reference returns the digest every pass must reproduce, computed
	// through a second configuration the repository proves equivalent. It
	// is used for any seed or size that has no pinned digest.
	reference() (uint64, error)
	// traced runs the workload's traced phases (traced.go).
	traced(t *tracedRun) error
	close()
}

// slice is one stretch of whole passes of a timed phase.
type slice struct {
	units     int
	wall, cpu time.Duration
	// slow is the host's slowdown over the slice; 1 without calibration.
	slow speed
}

// phase is the record of one timed loop.
type phase struct {
	slices []slice
	// p50, p90 and p99 are each window's nearest-rank request latency
	// quantiles, in milliseconds at the reference speed.
	p50, p90, p99 []float64
	// fewestBeyondP90 is the smallest number of a window's requests that
	// lie beyond its p90.
	fewestBeyondP90 int
	results         []iterResult
	wall            time.Duration
	units           int
	requests        int
}

// timed repeats pass for d of host time, in whole passes, without
// calibration: every slice's slowdown is 1.
func timed(pass func(lat *[]time.Duration) iterResult, d time.Duration) phase {
	ph, _ := timedCalibrated(pass, d, nil) // without a calibrator nothing can fail
	return ph
}

// timedCalibrated repeats pass for d of host time, in whole passes, and
// measures the host's speed with cal between slices when cal is not nil.
// The calibrations count against d.
func timedCalibrated(pass func(lat *[]time.Duration) iterResult, d time.Duration, cal *calibrator) (phase, error) {
	ph := phase{fewestBeyondP90: -1}
	var lat []time.Duration
	var wlat []float64
	slices := time.Duration(windowsPerRun * slicesPerWindow)
	measure := func() (speed, error) {
		if cal == nil {
			return speed{1, 1}, nil
		}
		return cal.measure()
	}
	flush := func() {
		ph.p50 = append(ph.p50, percentile(wlat, 0.50))
		ph.p90 = append(ph.p90, percentile(wlat, 0.90))
		ph.p99 = append(ph.p99, percentile(wlat, 0.99))
		if b := beyond(len(wlat), 0.90); ph.fewestBeyondP90 < 0 || b < ph.fewestBeyondP90 {
			ph.fewestBeyondP90 = b
		}
		wlat = wlat[:0]
	}
	start := time.Now()
	end := start.Add(d)
	before, err := measure()
	if err != nil {
		return ph, err
	}
	// Each slice is as long as leaves room for the calibration after it.
	// There is at least one slice, however short d is.
	slen := d/slices - time.Since(start)
	for len(ph.slices) == 0 || time.Now().Before(end) {
		w0, c0 := time.Now(), cpuTime()
		s := slice{}
		lat = lat[:0]
		for {
			r := pass(&lat)
			ph.results = append(ph.results, r)
			s.units += r.units
			if now := time.Now(); now.Sub(w0) >= slen || !now.Before(end) {
				break
			}
		}
		s.wall, s.cpu = time.Since(w0), cpuTime()-c0
		after, err := measure()
		if err != nil {
			return ph, err
		}
		s.slow, before = before.mean(after), after
		for _, l := range lat {
			wlat = append(wlat, ms(l)/s.slow.wall)
		}
		ph.slices = append(ph.slices, s)
		ph.units += s.units
		ph.requests += len(lat)
		if len(ph.slices)%slicesPerWindow == 0 {
			flush()
		}
	}
	// A last, partial window counts only when there is no full one.
	if len(ph.p50) == 0 {
		flush()
	}
	ph.wall = time.Since(start)
	return ph, nil
}

// perSlice is the median over slices of f.
func (ph phase) perSlice(f func(s slice) float64) float64 {
	v := make([]float64, len(ph.slices))
	for i, s := range ph.slices {
		v[i] = f(s)
	}
	return median(v)
}

// unitsPerSecond is the median slice throughput at the reference speed.
func (ph phase) unitsPerSecond() float64 {
	return ph.perSlice(func(s slice) float64 { return float64(s.units) / s.wall.Seconds() * s.slow.wall })
}

// hostUnitsPerSecond is the median slice throughput at the host's speed.
func (ph phase) hostUnitsPerSecond() float64 {
	return ph.perSlice(func(s slice) float64 { return float64(s.units) / s.wall.Seconds() })
}

// cpuPerUnit is the median slice CPU time per unit at the reference speed,
// in microseconds.
func (ph phase) cpuPerUnit() float64 {
	return ph.perSlice(func(s slice) float64 { return float64(s.cpu.Nanoseconds()) / 1e3 / float64(s.units) / s.slow.cpu })
}

// setUp sets w up n times and returns each set-up's time in seconds at the
// reference speed, calibrating before the first set-up and after each. With
// keep it returns the last instance and closes the others; without it, it
// closes them all.
func setUp(w workload, cfg config, n int, keep bool, cal *calibrator) (instance, []float64, error) {
	times := make([]float64, 0, n)
	var inst instance
	before, err := cal.measure()
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < n; i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		inst, err = w.setup(cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(t0).Seconds()
		after, err := cal.measure()
		if err != nil {
			inst.close()
			return nil, nil, err
		}
		times = append(times, took/before.mean(after).wall)
		before = after
	}
	if !keep && inst != nil {
		inst.close()
		inst = nil
	}
	return inst, times, nil
}

// tally counts attempted and failed units over passes against want. A pass
// that errored, failed a local check or produced another digest fails as
// a whole; the first few failures are described in notes.
func tally(results []iterResult, want uint64) (attempted, failed int64, notes []string) {
	for _, r := range results {
		attempted += int64(r.units)
		var why string
		switch {
		case r.err != nil:
			why = r.err.Error()
		case r.bad != "":
			why = r.bad
		case r.digest != want:
			why = fmt.Sprintf("digest %#x, want %#x", r.digest, want)
		default:
			continue
		}
		failed += int64(r.units)
		if len(notes) < 3 {
			notes = append(notes, "  FAILED pass: "+why)
		}
	}
	return attempted, failed, notes
}

// check settles a workload's passes against the digest every pass must
// reproduce: the pinned one at the default seed and full size, otherwise
// the instance's cross-configuration reference. A reference that cannot be
// computed fails every pass.
func check(w workload, cfg config, inst instance, results []iterResult) (attempted, failed int64, notes []string) {
	want, ok := pinned[w.name]
	source := fmt.Sprintf("pinned digest %#x", want)
	if !ok || cfg.tiny || cfg.seed != defaultSeed {
		var err error
		if want, err = inst.reference(); err != nil {
			for _, r := range results {
				attempted += int64(r.units)
			}
			return attempted, attempted, []string{"  FAILED check: cross-configuration reference: " + err.Error()}
		}
		source = fmt.Sprintf("cross-configuration digest %#x", want)
	}
	attempted, failed, notes = tally(results, want)
	return attempted, failed, append([]string{"  check: " + source}, notes...)
}

// runEndToEnd is the untraced run: set-up, one timed phase, then the
// output check. Every time figure is at the reference speed (calibrate.go).
func runEndToEnd(w workload, cfg config) (*report, error) {
	cal, err := startCalibrator()
	if err != nil {
		return nil, err
	}
	defer cal.close()
	inst, setups, err := setUp(w, cfg, setupRepeats/2, true, cal)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	ph, err := timedCalibrated(inst.iterate, time.Duration(cfg.seconds*float64(time.Second)), cal)
	if err != nil {
		return nil, err
	}
	rss := peakRSSMB()
	_, after, err := setUp(w, cfg, setupRepeats-setupRepeats/2, false, cal)
	if err != nil {
		return nil, err
	}
	setupS := median(append(setups, after...))
	rep := &report{}
	var notes []string
	rep.attempted, rep.failed, notes = check(w, cfg, inst, ph.results)
	rep.notes = append(rep.notes,
		fmt.Sprintf("  %d passes, %d systems in %.3fs, %d slices, %d windows; %d requests, at least %d beyond p90 in each window",
			len(ph.results), ph.units, ph.wall.Seconds(), len(ph.slices), len(ph.p50), ph.requests, ph.fewestBeyondP90),
		fmt.Sprintf("  host slowdown against the reference speed: median %.3f wall, %.3f CPU; at the host's speed %.6g units/s",
			ph.perSlice(func(s slice) float64 { return s.slow.wall }), ph.perSlice(func(s slice) float64 { return s.slow.cpu }),
			ph.hostUnitsPerSecond()))
	rep.notes = append(rep.notes,
		fmt.Sprintf("  window p50 %.3g ms, p90 %.3g ms", ph.p50, ph.p90),
		// p99 is printed, not reported: on a shared host it follows how
		// often the host stalls a virtual CPU more than the program (LAYERS.md).
		fmt.Sprintf("  request p99 %.4g ms (median over the windows; not a metric)", median(ph.p99)))
	rep.notes = append(rep.notes, notes...)
	rep.metrics = []metric{
		{"units_per_s", ph.unitsPerSecond(), "units/s"},
		{"cpu_us_per_unit", ph.cpuPerUnit(), "us"},
		{"request_p50_ms", median(ph.p50), "ms"},
		{"request_p90_ms", median(ph.p90), "ms"},
		{"peak_rss_mb", rss, "MB"},
		{"setup_s", setupS, "s"},
	}
	return rep, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// percentile returns the nearest-rank p-quantile of lat (sorted in place).
func percentile(lat []float64, p float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	sort.Float64s(lat)
	k := int(math.Ceil(p*float64(len(lat)))) - 1
	if k < 0 {
		k = 0
	}
	return lat[k]
}

// beyond is how many of n samples lie above the nearest-rank p-quantile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(p*float64(n)))
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

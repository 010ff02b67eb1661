package faults

import (
	"testing"

	"rtsj/internal/rtime"
	"rtsj/internal/sim"
)

func TestJobFaultDeterministicAndOrderIndependent(t *testing.T) {
	p := &Plan{Seed: 7, OverrunProb: 0.5, OverrunMax: 1, JitterProb: 0.5, JitterMax: rtime.TUs(2), DropProb: 0.1}
	forward := make([]Fault, 50)
	for i := range forward {
		forward[i] = p.JobFault(3, i)
	}
	for i := len(forward) - 1; i >= 0; i-- {
		if got := p.JobFault(3, i); got != forward[i] {
			t.Fatalf("job %d: fault depends on call order: %+v vs %+v", i, got, forward[i])
		}
	}
	q := *p
	if got := q.JobFault(3, 10); got != forward[10] {
		t.Fatalf("equal plans disagree: %+v vs %+v", got, forward[10])
	}
	q.Seed = 8
	same := 0
	for i := range forward {
		if q.JobFault(3, i) == forward[i] {
			same++
		}
	}
	if same == len(forward) {
		t.Fatal("changing the seed changed no fault")
	}
}

func TestKindStreamsIndependent(t *testing.T) {
	// Enabling drops must not shift the overrun/jitter schedule of
	// non-dropped jobs.
	base := &Plan{Seed: 1, OverrunProb: 0.4, OverrunMax: 0.5, JitterProb: 0.4, JitterMax: rtime.TUs(1)}
	withDrops := *base
	withDrops.DropProb = 0.2
	for i := 0; i < 100; i++ {
		f := withDrops.JobFault(0, i)
		if f.Dropped {
			continue
		}
		if want := base.JobFault(0, i); f != want {
			t.Fatalf("job %d: drop knob shifted other kinds: %+v vs %+v", i, f, want)
		}
	}
}

func TestFaultBounds(t *testing.T) {
	p := &Plan{Seed: 3, OverrunProb: 1, OverrunMax: 0.5, JitterProb: 1, JitterMax: rtime.TUs(2)}
	for i := 0; i < 200; i++ {
		f := p.JobFault(0, i)
		if f.CostFactor <= 1 || f.CostFactor > 1.5 {
			t.Fatalf("job %d: cost factor %v outside (1, 1.5]", i, f.CostFactor)
		}
		if f.Jitter <= 0 || f.Jitter > rtime.TUs(2) {
			t.Fatalf("job %d: jitter %v outside (0, 2tu]", i, f.Jitter)
		}
		af := p.ActivationFault(0, 1, i)
		if af.CostFactor <= 1 || af.CostFactor > 1.5 {
			t.Fatalf("release %d: activation factor %v outside (1, 1.5]", i, af.CostFactor)
		}
	}
}

func TestNilAndDisabledPlans(t *testing.T) {
	var nilPlan *Plan
	if nilPlan.Enabled() {
		t.Error("nil plan reports enabled")
	}
	if f := nilPlan.JobFault(0, 0); f.Dropped || f.Jitter != 0 || f.CostFactor != 1 {
		t.Errorf("nil plan injects: %+v", f)
	}
	if f := nilPlan.ActivationFault(0, 0, 0); f.CostFactor != 1 {
		t.Errorf("nil plan injects activation fault: %+v", f)
	}
	sys := sim.System{Aperiodics: []sim.AperiodicJob{{Name: "J1", Cost: rtime.TU}}}
	if out := nilPlan.ApplySystem(sys, 0); len(out.Aperiodics) != 1 || out.Aperiodics[0] != sys.Aperiodics[0] {
		t.Error("nil plan perturbed the system")
	}
	zero := &Plan{Seed: 42}
	if zero.Enabled() {
		t.Error("zero-knob plan reports enabled")
	}
}

func TestApplySystem(t *testing.T) {
	jobs := make([]sim.AperiodicJob, 40)
	for i := range jobs {
		jobs[i] = sim.AperiodicJob{Name: "J", Release: rtime.AtTU(float64(i)), Cost: rtime.TU}
	}
	p := &Plan{Seed: 11, OverrunProb: 0.5, OverrunMax: 1, JitterProb: 0.5, JitterMax: rtime.TUs(3), DropProb: 0.25}
	out := p.ApplySystem(sim.System{Aperiodics: jobs}, 0)
	if len(out.Aperiodics) >= len(jobs) {
		t.Fatalf("no job dropped: %d of %d remain", len(out.Aperiodics), len(jobs))
	}
	overrun, jittered := 0, 0
	for _, j := range out.Aperiodics {
		if j.Cost > rtime.TU {
			overrun++
			if j.Declared != rtime.TU {
				t.Fatalf("overrun job lost its declared cost: %v", j.Declared)
			}
		}
	}
	// Jitter only delays: find each surviving job's original by name-free
	// release comparison (original releases are the integers).
	for _, j := range out.Aperiodics {
		if j.Release != rtime.Time(rtime.DivFloor(rtime.Duration(j.Release), rtime.TU))*rtime.Time(rtime.TU) {
			jittered++
		}
	}
	if overrun == 0 {
		t.Error("no job overran")
	}
	if jittered == 0 {
		t.Error("no release jittered")
	}
	// The input system is untouched.
	for i, j := range jobs {
		if j.Cost != rtime.TU || j.Declared != 0 || j.Release != rtime.AtTU(float64(i)) {
			t.Fatalf("ApplySystem mutated its input at %d: %+v", i, j)
		}
	}
}

func TestParseStringRoundTrip(t *testing.T) {
	for _, s := range []string{
		"seed=7",
		"seed=7 overrun=0.3:0.5",
		"seed=-2 overrun=0.3:0.5 jitter=0.2:1.5tu drop=0.05",
		"seed=1 overrun=1:0.5 jitter=1:2tu drop=1",
	} {
		p, err := Parse(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		q, err := Parse(p.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", p.String(), err)
		}
		if *q != *p {
			t.Fatalf("%q: round trip %+v != %+v", s, q, p)
		}
	}
	for _, s := range []string{"", "off", "none", "  off  "} {
		p, err := Parse(s)
		if err != nil || p != nil {
			t.Fatalf("%q: want nil plan, got %+v, %v", s, p, err)
		}
	}
	for _, s := range []string{"bogus", "seed", "seed=x", "overrun=0.3", "jitter=0.1:zz", "what=1",
		"drop=NaN", "drop=2", "drop=-0.1", "drop=Inf",
		"overrun=-1:3", "overrun=NaN:0.5", "overrun=1.5:0.5",
		"overrun=0.3:-1", "overrun=0.3:NaN", "overrun=0.3:Inf",
		"jitter=2:1tu", "jitter=0.1:-1tu", "jitter=0.1:NaN", "jitter=0.1:1e300tu"} {
		if _, err := Parse(s); err == nil {
			t.Fatalf("%q: want parse error", s)
		}
	}
}

func TestCheckerConservation(t *testing.T) {
	c := &Checker{}
	c.Conservation(Counts{Released: 10, Served: 5, Interrupted: 2, Rejected: 1, Shed: 1, Pending: 1})
	if err := c.Err(); err != nil {
		t.Fatalf("balanced counts flagged: %v", err)
	}
	c.Conservation(Counts{Released: 10, Served: 5})
	if c.Err() == nil {
		t.Fatal("leaky counts not flagged")
	}
	c2 := &Checker{}
	c2.Conservation(Counts{Released: 1, Served: 2, Pending: -1})
	if c2.Err() == nil {
		t.Fatal("negative bucket not flagged")
	}
}

func TestCheckerMonotone(t *testing.T) {
	c := &Checker{}
	c.Monotone("x", 1)
	c.Monotone("x", 1)
	c.Monotone("x", 3)
	if err := c.Err(); err != nil {
		t.Fatalf("monotone sequence flagged: %v", err)
	}
	c.Monotone("x", 2)
	if c.Err() == nil {
		t.Fatal("regression not flagged")
	}
	c2 := &Checker{}
	c2.NonNegative("cap", rtime.TUs(-1))
	if c2.Err() == nil {
		t.Fatal("negative duration not flagged")
	}
	if len(c2.Violations()) != 1 {
		t.Fatalf("want 1 violation, got %v", c2.Violations())
	}
}

package gen

import (
	"math"
	"testing"
	"testing/quick"

	"rtsj/internal/rtime"
	"rtsj/internal/sim"
)

func baseParams() Params {
	return Params{
		TaskDensity:    2,
		AverageCost:    3,
		StdDeviation:   2,
		ServerCapacity: 4,
		ServerPeriod:   6,
		NbGeneration:   10,
		Seed:           1983,
		HorizonPeriods: 10,
	}
}

func TestGenerateCount(t *testing.T) {
	systems := Generate(baseParams())
	if len(systems) != 10 {
		t.Fatalf("systems = %d", len(systems))
	}
	// Per-period arrivals: exactly density*periods events per system.
	for i, s := range systems {
		if len(s.Aperiodics) != 20 {
			t.Errorf("system %d: %d events, want 20", i, len(s.Aperiodics))
		}
	}
}

func TestGenerateZero(t *testing.T) {
	if Generate(Params{}) != nil {
		t.Error("zero params should generate nothing")
	}
	p := baseParams()
	p.NbGeneration = 0
	if Generate(p) != nil {
		t.Error("NbGeneration=0 should generate nothing")
	}
}

func TestCostClamp(t *testing.T) {
	p := baseParams()
	p.AverageCost = 0.05 // mostly below the clamp
	p.StdDeviation = 0.01
	for _, s := range Generate(p) {
		for _, j := range s.Aperiodics {
			if j.Cost < rtime.TUs(MinCost) {
				t.Fatalf("cost %v below clamp", j.Cost)
			}
		}
	}
}

func TestCostStatistics(t *testing.T) {
	p := baseParams()
	p.NbGeneration = 200
	var sum, sumSq float64
	n := 0
	for _, s := range Generate(p) {
		for _, j := range s.Aperiodics {
			c := j.Cost.TUs()
			sum += c
			sumSq += c * c
			n++
		}
	}
	mean := sum / float64(n)
	sd := math.Sqrt(sumSq/float64(n) - mean*mean)
	// The clamp biases the mean upward, as the paper notes.
	if mean < 3.0 || mean > 3.6 {
		t.Errorf("mean cost = %.3f, want ~3.2 (clamped normal)", mean)
	}
	if sd < 1.4 || sd > 2.2 {
		t.Errorf("cost sd = %.3f, want ~1.8", sd)
	}
}

func TestPoissonArrivalModel(t *testing.T) {
	p := baseParams()
	p.Arrivals = PoissonArrivals
	p.NbGeneration = 300
	total := 0
	for _, s := range Generate(p) {
		total += len(s.Aperiodics)
	}
	mean := float64(total) / 300
	if mean < 17 || mean > 23 {
		t.Errorf("Poisson mean count = %.2f, want ~20", mean)
	}
}

func TestArrivalsSortedAndInHorizon(t *testing.T) {
	for _, model := range []ArrivalModel{PerPeriodArrivals, PoissonArrivals} {
		p := baseParams()
		p.Arrivals = model
		for _, s := range Generate(p) {
			for i, j := range s.Aperiodics {
				if j.Release < 0 || j.Release >= p.Horizon() {
					t.Fatalf("model %d: release %v outside [0,%v)", model, j.Release, p.Horizon())
				}
				if i > 0 && j.Release < s.Aperiodics[i-1].Release {
					t.Fatalf("model %d: arrivals unsorted", model)
				}
			}
		}
	}
}

func TestWithServer(t *testing.T) {
	p := baseParams()
	sys := Generate(p)[0]
	if sys.Server != nil {
		t.Fatal("generated system should carry no server")
	}
	s2 := WithServer(sys, p, sim.LimitedPollingServer, 42)
	if s2.Server == nil || s2.Server.Priority != 42 ||
		s2.Server.Capacity != rtime.TUs(4) || s2.Server.Period != rtime.TUs(6) {
		t.Fatalf("server spec: %+v", s2.Server)
	}
	if sys.Server != nil {
		t.Fatal("WithServer mutated its input")
	}
	if err := s2.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestJobNames(t *testing.T) {
	sys := Generate(baseParams())[0]
	if sys.Aperiodics[0].Name != "J1" {
		t.Errorf("first job name = %q", sys.Aperiodics[0].Name)
	}
	if sys.Aperiodics[19].Name != "J20" {
		t.Errorf("20th job name = %q", sys.Aperiodics[19].Name)
	}
}

func TestRNGUniformity(t *testing.T) {
	r := newRNG(7)
	var sum float64
	const n = 100000
	buckets := [10]int{}
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("float64 out of range: %v", v)
		}
		sum += v
		buckets[int(v*10)]++
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean = %v", mean)
	}
	for i, b := range buckets {
		if b < n/10-n/50 || b > n/10+n/50 {
			t.Errorf("bucket %d = %d, want ~%d", i, b, n/10)
		}
	}
}

func TestRNGNormal(t *testing.T) {
	r := newRNG(13)
	var sum, sumSq float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	sd := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v", mean)
	}
	if math.Abs(sd-1) > 0.02 {
		t.Errorf("normal sd = %v", sd)
	}
}

func TestPoissonMean(t *testing.T) {
	r := newRNG(29)
	for _, lambda := range []float64{0.5, 3, 10} {
		sum := 0
		const n = 50000
		for i := 0; i < n; i++ {
			sum += r.poisson(lambda)
		}
		mean := float64(sum) / n
		if math.Abs(mean-lambda) > lambda*0.05+0.05 {
			t.Errorf("poisson(%v) mean = %v", lambda, mean)
		}
	}
	if r.poisson(0) != 0 || r.poisson(-1) != 0 {
		t.Error("non-positive lambda should give 0")
	}
}

func TestNoiseDeterministicAndBounded(t *testing.T) {
	f := func(seed int64, si, ji uint8) bool {
		a := Noise(seed, int(si), int(ji))
		b := Noise(seed, int(si), int(ji))
		return a == b && a >= 0 && a < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if Noise(1, 0, 0) == Noise(1, 0, 1) {
		t.Error("noise should differ across job indices")
	}
	if Noise(1, 0, 0) == Noise(2, 0, 0) {
		t.Error("noise should differ across seeds")
	}
}

func TestJobNameHelper(t *testing.T) {
	cases := map[int]string{0: "J1", 8: "J9", 9: "J10", 99: "J100"}
	for i, want := range cases {
		if got := jobName(i); got != want {
			t.Errorf("jobName(%d) = %q, want %q", i, got, want)
		}
	}
}

func TestSortFloats(t *testing.T) {
	f := func(in []float32) bool {
		a := make([]float64, len(in))
		for i, v := range in {
			a[i] = float64(v)
		}
		sortFloats(a)
		for i := 1; i < len(a); i++ {
			if a[i] < a[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

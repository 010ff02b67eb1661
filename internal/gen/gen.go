// Package gen is the random real-time system generator of the paper's
// Section 6.1 (the fr.umlv.randomGenerator package): it produces sets of
// systems from (taskDensity, averageCost, stdDeviation, serverCapacity,
// serverPeriod, nbGeneration, seed), deterministically across platforms.
//
// The paper's cost-generation quirk is reproduced on purpose: normally
// distributed costs below 0.1 tu are clamped to 0.1 tu, which the authors
// note biases the average cost upward ("a bad-design issue on our costs
// generation").
package gen

import (
	"math"

	"rtsj/internal/rtime"
	"rtsj/internal/sim"
)

// ArrivalModel selects how aperiodic arrivals are drawn.
type ArrivalModel int

// Arrival models.
const (
	// PerPeriodArrivals draws round(density) arrivals uniformly inside
	// each server period. This matches the paper's measured served ratios
	// best (its generator is driven by "the average number of aperiodic
	// events per server period") and is the default.
	PerPeriodArrivals ArrivalModel = iota
	// PoissonArrivals draws a Poisson(density*periods) total count with
	// uniform arrival instants over the whole horizon: burstier, used by
	// the robustness experiments.
	PoissonArrivals
	// MMPPArrivals draws from a two-state Markov-modulated Poisson
	// process: the source alternates between a calm state at the base
	// density and a burst state at BurstFactor times that density, with
	// exponentially distributed sojourn times. It produces the arrival
	// storms the overload scenario family needs while staying fully
	// deterministic under the seed.
	MMPPArrivals
)

// Params mirrors the constructor parameters of randomSystemGenerator.
type Params struct {
	// TaskDensity is the average number of aperiodic events per server
	// period.
	TaskDensity float64
	// Arrivals selects the arrival process (default PerPeriodArrivals).
	Arrivals ArrivalModel
	// AverageCost is the mean aperiodic event cost, in time units.
	AverageCost float64
	// StdDeviation is the standard deviation of event costs, in time units.
	StdDeviation float64
	// ServerCapacity and ServerPeriod define the task server, in time
	// units.
	ServerCapacity float64
	ServerPeriod   float64 // server replenishment period, in time units
	// NbGeneration is the number of systems to generate.
	NbGeneration int
	// Seed makes the generation reproducible across platforms.
	Seed int64
	// HorizonPeriods is the observation window in server periods (the
	// paper limits simulations and executions to ten server periods).
	HorizonPeriods int
	// BurstFactor multiplies the arrival rate in the MMPP burst state
	// (MMPPArrivals only); 0 defaults to 8.
	BurstFactor float64
	// BurstMeanPeriods is the mean burst-state sojourn in server periods
	// (MMPPArrivals only); 0 defaults to 1.
	BurstMeanPeriods float64
	// CalmMeanPeriods is the mean calm-state sojourn in server periods
	// (MMPPArrivals only); 0 defaults to 3.
	CalmMeanPeriods float64
}

// Horizon returns the observation window of the generated systems.
func (p Params) Horizon() rtime.Time {
	return rtime.Time(rtime.TUs(p.ServerPeriod)) * rtime.Time(p.HorizonPeriods)
}

// MinCost is the clamp the paper applies to generated costs.
const MinCost = 0.1

// Generate produces the systems for one parameter tuple. The returned
// systems carry no server policy: use WithServer to attach one.
func Generate(p Params) []sim.System {
	if p.NbGeneration <= 0 {
		return nil
	}
	if p.HorizonPeriods <= 0 {
		p.HorizonPeriods = 10
	}
	r := newRNG(uint64(p.Seed))
	out := make([]sim.System, 0, p.NbGeneration)
	for n := 0; n < p.NbGeneration; n++ {
		out = append(out, genSystem(p, r))
	}
	return out
}

// SystemAt returns system i of the unbounded, index-addressable campaign
// population for p. Unlike Generate, whose systems share one sequential
// random stream (system n depends on every draw before it), each index
// derives its own splitmix stream from (Seed, i): SystemAt is a pure
// function of (p, i), so a shard worker can generate any index range of a
// campaign without replaying the prefix — the foundation of the campaign
// fabric's deterministic sharding. NbGeneration is ignored.
//
// SystemAt(p, i) and Generate(p)[i] draw from different streams and do not
// produce the same systems; campaigns are a distinct population from the
// paper's NbGeneration sets.
func SystemAt(p Params, i int) sim.System {
	if p.HorizonPeriods <= 0 {
		p.HorizonPeriods = 10
	}
	// Per-index stream derivation mirrors Noise: the seed and the index mix
	// through distinct odd constants so neighbouring indices land in
	// unrelated splitmix states.
	r := newRNG(uint64(p.Seed)*0x9E3779B97F4A7C15 ^ (uint64(i)+1)*0xA24BAED4963EE407)
	return genSystem(p, r)
}

// genSystem draws one system from r: the shared body of Generate (one
// sequential stream across systems) and SystemAt (one stream per index).
// The caller must have defaulted HorizonPeriods.
func genSystem(p Params, r *rng) sim.System {
	horizonTU := p.ServerPeriod * float64(p.HorizonPeriods)
	var arrivals []float64
	switch p.Arrivals {
	case MMPPArrivals:
		arrivals = mmppArrivals(p, r, horizonTU)
	case PoissonArrivals:
		lambda := p.TaskDensity * float64(p.HorizonPeriods)
		count := r.poisson(lambda)
		arrivals = make([]float64, count)
		for i := range arrivals {
			arrivals[i] = r.Float64() * horizonTU
		}
	default: // PerPeriodArrivals
		perPeriod := int(p.TaskDensity + 0.5)
		for k := 0; k < p.HorizonPeriods; k++ {
			for i := 0; i < perPeriod; i++ {
				arrivals = append(arrivals,
					(float64(k)+r.Float64())*p.ServerPeriod)
			}
		}
	}
	sortFloats(arrivals)
	jobs := make([]sim.AperiodicJob, 0, len(arrivals))
	for i, a := range arrivals {
		cost := p.AverageCost + p.StdDeviation*r.norm()
		if cost < MinCost {
			cost = MinCost
		}
		jobs = append(jobs, sim.AperiodicJob{
			Name:    jobName(i),
			Release: rtime.AtTU(a),
			Cost:    rtime.TUs(cost),
		})
	}
	return sim.System{Aperiodics: jobs}
}

// mmppArrivals walks the two-state chain across the horizon: each sojourn
// length is exponential with the state's mean, the arrivals inside it are
// Poisson at the state's rate with uniform instants in the window.
func mmppArrivals(p Params, r *rng, horizonTU float64) []float64 {
	burstFactor := p.BurstFactor
	if burstFactor <= 0 {
		burstFactor = 8
	}
	burstMean := p.BurstMeanPeriods
	if burstMean <= 0 {
		burstMean = 1
	}
	calmMean := p.CalmMeanPeriods
	if calmMean <= 0 {
		calmMean = 3
	}
	calmRate := p.TaskDensity / p.ServerPeriod // arrivals per tu
	var arrivals []float64
	t := 0.0
	burst := false
	for t < horizonTU {
		mean, rate := calmMean, calmRate
		if burst {
			mean, rate = burstMean, calmRate*burstFactor
		}
		sojourn := -mean * p.ServerPeriod * math.Log(1-r.Float64())
		end := t + sojourn
		if end > horizonTU {
			end = horizonTU
		}
		n := r.poisson(rate * (end - t))
		for i := 0; i < n; i++ {
			arrivals = append(arrivals, t+r.Float64()*(end-t))
		}
		t = end
		burst = !burst
	}
	return arrivals
}

// WithServer returns a copy of sys with the given server policy attached,
// using the generation parameters' capacity and period. The server runs at
// the highest application priority, as the paper requires.
func WithServer(sys sim.System, p Params, policy sim.ServerPolicy, prio int) sim.System {
	out := sys
	spec := ServerSpecOf(p, policy, prio)
	out.Server = &spec
	return out
}

// ServerSpecOf builds the server specification for a parameter tuple.
func ServerSpecOf(p Params, policy sim.ServerPolicy, prio int) sim.ServerSpec {
	return sim.ServerSpec{
		Policy:   policy,
		Capacity: rtime.TUs(p.ServerCapacity),
		Period:   rtime.TUs(p.ServerPeriod),
		Priority: prio,
	}
}

func jobName(i int) string {
	// J1, J2, ... without fmt to keep the hot path allocation-light.
	digits := [20]byte{}
	pos := len(digits)
	n := i + 1
	for n > 0 {
		pos--
		digits[pos] = byte('0' + n%10)
		n /= 10
	}
	return "J" + string(digits[pos:])
}

func sortFloats(a []float64) {
	// Insertion sort: arrival lists are small and this avoids pulling in
	// sort for a hot generation loop.
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

// SplitMix is a splitmix64 generator: tiny, fast, and stable across Go
// versions and platforms (the paper passes a seed "in order to generate the
// same systems on multiple platforms"). It is the repository's one
// splitmix64 implementation; internal/faults draws its fault streams from
// it too.
type SplitMix struct{ s uint64 }

// NewSplitMix returns a generator whose state starts at seed.
func NewSplitMix(seed uint64) SplitMix { return SplitMix{s: seed} }

// Next advances the stream and returns its next 64-bit value.
func (r *SplitMix) Next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *SplitMix) Float64() float64 {
	return float64(r.Next()>>11) / (1 << 53)
}

// rng is the workload generator's stream: splitmix64 plus the cached spare
// of the Box-Muller normal draw.
type rng struct {
	SplitMix
	spare float64
	has   bool
}

func newRNG(seed uint64) *rng { return &rng{SplitMix: NewSplitMix(seed)} }

// norm returns a standard normal value (Box-Muller, with the spare cached).
func (r *rng) norm() float64 {
	if r.has {
		r.has = false
		return r.spare
	}
	var u, v float64
	for u == 0 {
		u = r.Float64()
	}
	v = r.Float64()
	mag := math.Sqrt(-2 * math.Log(u))
	r.spare = mag * math.Sin(2*math.Pi*v)
	r.has = true
	return mag * math.Cos(2*math.Pi*v)
}

// poisson draws a Poisson-distributed count (Knuth's method; the paper's
// densities keep lambda small enough for it).
func (r *rng) poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 100000 {
			return k // defensive; unreachable for sane lambda
		}
	}
}

// Noise derives a deterministic per-event cost-noise factor in [0, 1),
// independent of generation order, for the execution model's WCET jitter.
func Noise(seed int64, sysIndex, jobIndex int) float64 {
	r := newRNG(uint64(seed) ^ uint64(sysIndex)*0xA24BAED4963EE407 ^ uint64(jobIndex)*0x9FB21C651E98DF25)
	return r.Float64()
}

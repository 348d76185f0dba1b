package sim

import (
	"math"
	"math/rand"
)

// RNG is a deterministic random stream used by stochastic components
// (loss processes, jitter, scenario sampling). It wraps math/rand with
// a few distributions the path models need. Each component derives its
// own child stream so that adding randomness to one component does not
// perturb another's sequence.
//
// An RNG holds its fast source inline, so a stream is one allocation;
// r refers to src, so an RNG must not be copied.
type RNG struct {
	r   rand.Rand
	src lfSource
}

// NewRNG returns a stream seeded with seed. The underlying source is
// the fast-seeding lagged-Fibonacci implementation from fastrand.go,
// bit-identical to math/rand's, which builds its 4.9 KB register only
// if the stream keeps drawing: world construction derives streams per
// run, link, flow and connection, and most draw a few values or none.
func NewRNG(seed int64) *RNG {
	g := &RNG{}
	if lfFastOK {
		g.src.Seed(seed)
		g.r = *rand.New(&g.src)
	} else {
		g.r = *rand.New(rand.NewSource(seed))
	}
	return g
}

// Child derives an independent stream from this one, labeled for
// reproducibility: equal labels and parent state yield equal children.
func (g *RNG) Child(label string) *RNG {
	h := int64(1469598103934665603) // FNV-1a offset basis
	for i := 0; i < len(label); i++ {
		h ^= int64(label[i])
		h *= 1099511628211
	}
	return NewRNG(h ^ g.r.Int63())
}

// Float64 returns a uniform value in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform value in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a uniform non-negative int64.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return g.r.Float64() < p
}

// NormFloat64 returns a standard normal sample.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// Normal returns a normal sample with the given mean and standard
// deviation.
func (g *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*g.r.NormFloat64()
}

// ExpFloat64 returns an exponential sample with rate 1.
func (g *RNG) ExpFloat64() float64 { return g.r.ExpFloat64() }

// Exponential returns an exponential sample with the given mean.
func (g *RNG) Exponential(mean float64) float64 {
	return mean * g.r.ExpFloat64()
}

// LogNormal returns a log-normal sample parameterized by the location
// mu and scale sigma of the underlying normal. Heavy-tailed cellular
// RTT jitter is modeled with this.
func (g *RNG) LogNormal(mu, sigma float64) float64 {
	return exp(mu + sigma*g.r.NormFloat64())
}

// Pareto returns a Pareto(xm, alpha) sample: xm * U^(-1/alpha). Used
// for the multi-second tails seen on 3G paths.
func (g *RNG) Pareto(xm, alpha float64) float64 {
	u := g.r.Float64()
	for u == 0 {
		u = g.r.Float64()
	}
	return xm * pow(u, -1/alpha)
}

// Uniform returns a uniform sample in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// Duration returns a uniform virtual duration in [lo, hi).
func (g *RNG) Duration(lo, hi Time) Time {
	if hi <= lo {
		return lo
	}
	return lo + Time(g.r.Int63n(int64(hi-lo)))
}

// Shuffle permutes n elements using swap, in the manner of rand.Shuffle.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

func exp(x float64) float64    { return math.Exp(x) }
func pow(x, y float64) float64 { return math.Pow(x, y) }

// Splitmix64 is the 64-bit finalizer of the SplitMix generator
// (Steele, Lea & Flood 2014): a bijection on uint64 with full
// avalanche, so distinct inputs always produce distinct outputs. The
// campaign and fleet runners both derive collision-free per-job seeds
// with it.
func Splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

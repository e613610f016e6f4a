package rng

import (
	"math"
)

// This file implements the probability distributions used by the workload
// generators. Every sampler draws exclusively from a *Rand48 stream so the
// whole simulation depends on a single, documented source of randomness.

// Exponential returns a sample from the exponential distribution with the
// given mean (mean = 1/rate). The BOLD publication experiment uses
// exponential task execution times with mean 1 s.
func Exponential(r *Rand48, mean float64) float64 {
	// 1-u is in (0,1]; log of it is finite. u itself could be 0.
	return -mean * math.Log(1-r.Erand48())
}

// Uniform returns a sample uniformly distributed in [lo, hi).
func Uniform(r *Rand48, lo, hi float64) float64 {
	return lo + (hi-lo)*r.Erand48()
}

// Normal returns a sample from the normal distribution N(mu, sigma^2)
// using the Marsaglia polar method. Two uniforms are consumed per
// accepted pair; the spare deviate is intentionally discarded so that the
// consumption pattern stays independent of call history (simpler
// reproducibility reasoning at negligible cost).
func Normal(r *Rand48, mu, sigma float64) float64 {
	for {
		u := 2*r.Erand48() - 1
		v := 2*r.Erand48() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		return mu + sigma*u*f
	}
}

// Gamma returns a sample from the gamma distribution with the given shape
// and scale (mean = shape*scale). It implements the Marsaglia–Tsang
// squeeze method for shape >= 1 and the Ahrens–Dieter boost for
// shape < 1. Gamma(k, theta) with integer k is exactly the distribution of
// the sum of k independent exponentials of mean theta, which is what makes
// the O(1) chunk-time fast path in package workload distribution-exact.
func Gamma(r *Rand48, shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("rng: Gamma requires positive shape and scale")
	}
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) * U^(1/a).
		u := r.Erand48()
		for u == 0 {
			u = r.Erand48()
		}
		return Gamma(r, shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = Normal(r, 0, 1)
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := r.Erand48()
		if u < 1-0.0331*x*x*x*x {
			return scale * d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return scale * d * v
		}
	}
}

// ErlangSum returns the sum of k independent exponential samples of the
// given mean, drawn one by one. It is the exact (slow) counterpart of
// Gamma(k, mean) and exists for cross-validation of the fast path.
func ErlangSum(r *Rand48, k int64, mean float64) float64 {
	var s float64
	for i := int64(0); i < k; i++ {
		s += Exponential(r, mean)
	}
	return s
}

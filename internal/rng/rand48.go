// Package rng implements the POSIX rand48 family of pseudo-random number
// generators and the distributions required by the dynamic loop scheduling
// experiments reproduced in this repository.
//
// The BOLD publication (Hagerup, JPDC 47(2), 1997) generates task execution
// times "with the aid of the random number generators erand48 and nrand48"
// (paper §III-B). To stay faithful to that experimental setup, this package
// provides a bit-exact implementation of the 48-bit linear congruential
// generator those functions share:
//
//	X(k+1) = (a*X(k) + c) mod 2^48,  a = 0x5DEECE66D, c = 0xB
//
// All state is explicit (the *48 variants of the C API), so independent
// streams are cheap and the simulation remains deterministic under
// parallel execution.
package rng

const (
	mult48 = 0x5DEECE66D // multiplier a of the rand48 LCG
	add48  = 0xB         // increment c of the rand48 LCG
	mask48 = 1<<48 - 1   // 48-bit modulus mask

	// seedLow is the constant low word POSIX srand48 installs: the
	// initial state is (seed << 16) | 0x330E.
	seedLow = 0x330E
)

// Rand48 is a deterministic 48-bit linear congruential generator with the
// POSIX rand48 parameters. The zero value is a valid generator seeded with
// state 0; use New or Seed for reproducible, documented seeding.
type Rand48 struct {
	state uint64 // only the low 48 bits are significant
}

// New returns a generator seeded as POSIX srand48 would seed it: the high
// 32 bits of the state are the low 32 bits of seed and the low 16 bits are
// 0x330E.
func New(seed int64) *Rand48 {
	r := &Rand48{}
	r.Seed(seed)
	return r
}

// FromState returns a generator whose full 48-bit state is state&mask48,
// equivalent to the C seed48 interface. Use this to derive independent
// streams from a SplitMix64 hash.
func FromState(state uint64) *Rand48 {
	return &Rand48{state: state & mask48}
}

// Seed resets the generator exactly like srand48: state = seed<<16 | 0x330E.
func (r *Rand48) Seed(seed int64) {
	r.state = (uint64(uint32(seed))<<16 | seedLow) & mask48
}

// State returns the current 48-bit state (seed48 semantics).
func (r *Rand48) State() uint64 { return r.state }

// SetState installs a full 48-bit state (seed48 semantics).
func (r *Rand48) SetState(s uint64) { r.state = s & mask48 }

// next advances the LCG one step and returns the new 48-bit state.
func (r *Rand48) next() uint64 {
	r.state = (r.state*mult48 + add48) & mask48
	return r.state
}

// Erand48 returns the next value as a float64 uniformly distributed in
// [0, 1), matching the C library erand48: the 48 state bits become the
// mantissa of a double scaled by 2^-48.
func (r *Rand48) Erand48() float64 {
	return float64(r.next()) / (1 << 48)
}

// Nrand48 returns the next value as a non-negative 31-bit integer,
// matching the C library nrand48 (the high 31 of the 48 state bits).
func (r *Rand48) Nrand48() int32 {
	return int32(r.next() >> 17)
}

// Uint64 returns 64 pseudo-random bits assembled from two LCG steps
// (32 high-quality high bits from each). It exists so the generator can
// drive generic algorithms expecting a 64-bit source.
func (r *Rand48) Uint64() uint64 {
	hi := uint64(uint32(r.next() >> 16))
	lo := uint64(uint32(r.next() >> 16))
	return hi<<32 | lo
}

// Float64 is an alias for Erand48, satisfying the naming convention used
// throughout the simulator code.
func (r *Rand48) Float64() float64 { return r.Erand48() }

// Intn returns a uniformly distributed integer in [0, n). It panics if
// n <= 0. The slight modulo bias of a plain remainder is avoided by
// rejection sampling on the 31-bit nrand48 output.
func (r *Rand48) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	if n > 1<<30 {
		// Fall back to 63-bit rejection for very large ranges.
		for {
			v := int64(r.Uint64() >> 1)
			if lim := (1<<63 - 1) - (1<<63-1)%int64(n); v < lim {
				return int(v % int64(n))
			}
		}
	}
	max := int32((1 << 31) - 1)
	lim := max - max%int32(n)
	for {
		if v := r.Nrand48(); v < lim {
			return int(v % int32(n))
		}
	}
}

// Split derives an independent child generator from the current stream
// using a SplitMix64 finalizer over the next raw state. The parent stream
// advances by one step. Children of distinct draws are statistically
// independent for simulation purposes.
func (r *Rand48) Split() *Rand48 {
	return FromState(Mix64(r.next()))
}

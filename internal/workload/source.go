package workload

import (
	"math/bits"
	"math/rand"
)

// source is an exact copy of math/rand's Go 1 source (rngSource): the
// additive lagged Fibonacci generator x[n] = x[n-607] + x[n-273] over 64-bit
// words, seeded by the same Park-Miller expansion XORed with the same cooked
// table.  Held by value inside the Generator, its draws are direct,
// inlinable calls instead of interface calls through a *rand.Rand, and the
// bounded draws below use bounds precomputed once per run.  Every draw
// returns exactly what the math/rand method it names would.
type source struct {
	tap, feed int
	vec       [srcLen]int64
}

const (
	srcLen   = 607
	srcTap   = 273
	int32max = 1<<31 - 1

	// float64Limit is the smallest Int63 value that Float64 rounds up to
	// 1.0 and therefore redraws: float64(x) == 1<<63 for every x at or
	// above it.
	float64Limit = 1<<63 - 512
)

// cooked is math/rand's rngCooked table, the values the seeded register is
// XORed with.  It is recovered at package init rather than copied: seed a
// math/rand source, read its first srcLen outputs, invert the recurrence to
// get the seeded register, and XOR away the seed expansion.
var cooked = recoverCooked()

func recoverCooked() [srcLen]int64 {
	const seed = 1
	src := rand.NewSource(seed).(rand.Source64)
	var out [srcLen]int64
	for k := range out {
		out[k] = int64(src.Uint64())
	}
	// Draw k writes feed slot f = (333-k) mod 607 with
	// vec[f] + vec[(606-k) mod 607]; that tap slot is the original
	// register for k < 273 and draw k-273's output after that.
	var vec [srcLen]int64
	for k := srcTap; k < srcLen; k++ {
		vec[(srcLen-srcTap-1-k+srcLen)%srcLen] = out[k] - out[k-srcTap]
	}
	for k := 0; k < srcTap; k++ {
		vec[srcLen-srcTap-1-k] = out[k] - vec[srcLen-1-k]
	}
	var s source
	s.expand(seed)
	for i := range vec {
		vec[i] ^= s.vec[i]
	}
	return vec
}

// seedrand returns 48271·x mod (2³¹-1), the Park-Miller step math/rand
// computes with Schrage's method, here as a 64-bit product and a Mersenne
// reduction.  x must lie in [1, 2³¹-1).
func seedrand(x uint64) uint64 {
	p := x * 48271
	r := p&int32max + p>>31
	if r >= int32max {
		r -= int32max
	}
	return r
}

// expand resets the draw position and fills the register with the seed's
// Park-Miller expansion, before the cooked table is applied.
func (s *source) expand(seed int64) {
	s.tap = 0
	s.feed = srcLen - srcTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	for i := 0; i < 20; i++ {
		x = seedrand(x)
	}
	for i := range s.vec {
		x = seedrand(x)
		u := x << 40
		x = seedrand(x)
		u ^= x << 20
		x = seedrand(x)
		u ^= x
		s.vec[i] = int64(u)
	}
}

// seed is rand.Source.Seed.
func (s *source) seed(seed int64) {
	s.expand(seed)
	for i := range s.vec {
		s.vec[i] ^= cooked[i]
	}
}

// int63 is rand.Source.Int63.
//
//refrint:alloc-free
func (s *source) int63() int64 {
	if s.tap--; s.tap < 0 {
		s.tap += srcLen
	}
	if s.feed--; s.feed < 0 {
		s.feed += srcLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x & (1<<63 - 1)
}

// below returns rand.Float64() < p for the threshold t = threshold(p).
//
//refrint:alloc-free
func (s *source) below(t int64) bool {
	for {
		if x := s.int63(); x < float64Limit {
			return x < t
		}
	}
}

// threshold returns the smallest Int63 value x for which Float64 would
// return float64(x)/2⁶³ ≥ p, so that Float64() < p is exactly x < T.  It
// is 0 for p ≤ 0 (or NaN) and float64Limit when every value Float64
// returns is below p.
func threshold(p float64) int64 {
	if !(p > 0) {
		return 0
	}
	if p >= 1 {
		return float64Limit
	}
	// float64(x) is within 512 of x below 2⁶³, so T lies within a few
	// hundred of p·2⁶³; bisect a window well around it.
	c := int64(p * (1 << 63))
	lo, hi := max(c-2048, 0), min(c+2048, float64Limit)
	for hi-lo > 1 { // invariant: value at lo is below p, value at hi is not
		mid := lo + (hi-lo)/2
		if float64(mid)/(1<<63) >= p {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// bound holds the precomputed rejection bound and reciprocal of Int31n(n)
// for one fixed n in [1, 2³¹-1].
type bound struct {
	n     uint64
	limit uint64 // largest accepted Int31 draw
	m     uint64 // ⌊(2⁶⁴-1)/n⌋+1, so that v mod n = hi64((m·v mod 2⁶⁴)·n)
}

func newBound(n int) bound {
	return bound{
		n:     uint64(n),
		limit: uint64(1<<31 - 1 - (1<<31)%uint32(n)),
		m:     ^uint64(0)/uint64(n) + 1,
	}
}

// int31n is rand.Int31n(b.n), with the remainder by multiplication.
//
//refrint:alloc-free
func (s *source) int31n(b *bound) (r uint64) {
	for {
		if v := uint64(s.int63()) >> 32; v <= b.limit {
			r, _ = bits.Mul64(b.m*v, b.n)
			return r
		}
	}
}

// int63n is rand.Int63n(n).
//
//refrint:alloc-free
func (s *source) int63n(n int64) int64 {
	if n&(n-1) == 0 {
		return s.int63() & (n - 1)
	}
	limit := int64(1<<63 - 1 - (1<<63)%uint64(n))
	v := s.int63()
	for v > limit {
		v = s.int63()
	}
	return v % n
}

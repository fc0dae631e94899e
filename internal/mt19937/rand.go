package mt19937

import "math/bits"

// Rand draws from an MT19937 with exactly the algorithms of math/rand's
// *Rand, so a Rand and rand.New(src) over generators in the same state
// return the same values draw for draw. It calls the generator directly
// instead of through the rand.Source interface, which matters on the
// agent engine's hot path: every peer pick and coin flip is one draw.
//
// A Rand is a handle: copies share the generator, and a *rand.Rand built
// over Source() shares it too, so draws through either advance the one
// stream.
type Rand struct{ src *MT19937 }

// NewRand returns a Rand drawing from src.
func NewRand(src *MT19937) Rand { return Rand{src} }

// Source returns the generator r draws from.
func (r Rand) Source() *MT19937 { return r.src }

// int63, int31 and uint32 are math/rand's Int63, Int31 and Uint32: the
// word each bounded draw below reduces.
func (r Rand) int63() int64   { return int64(r.src.Uint64() >> 1) }
func (r Rand) int31() int32   { return int32(r.src.Uint64() >> 33) }
func (r Rand) uint32() uint32 { return uint32(r.src.Uint64() >> 32) }

// Int63n returns a uniform integer in [0, n), as math/rand's Int63n. It
// panics if n <= 0.
func (r Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("mt19937: invalid argument to Int63n")
	}
	if n&(n-1) == 0 {
		return r.int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.int63()
	for v > max {
		v = r.int63()
	}
	return v % n
}

// Int31n returns a uniform integer in [0, n), as math/rand's Int31n. It
// panics if n <= 0.
func (r Rand) Int31n(n int32) int32 {
	if n <= 0 {
		panic("mt19937: invalid argument to Int31n")
	}
	if n&(n-1) == 0 {
		return r.int31() & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := r.int31()
	for v > max {
		v = r.int31()
	}
	return v % n
}

// Intn returns a uniform integer in [0, n), as math/rand's Intn. It
// panics if n <= 0. For a bound drawn many times, IntnBound with a
// precomputed Bound returns the same values faster.
func (r Rand) Intn(n int) int {
	if n <= 0 {
		panic("mt19937: invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(r.Int31n(int32(n)))
	}
	return int(r.Int63n(int64(n)))
}

// Float64 returns a uniform float64 in [0, 1), as math/rand's Float64:
// float64(int63())/2⁶³, resampled in the rare case that rounds to 1. This
// is a different value stream from MT19937.Float64's 53-bit conversion.
func (r Rand) Float64() float64 {
	for {
		if f := float64(r.int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}

// Shuffle permutes n elements by Fisher–Yates, as math/rand's Shuffle:
// Int63n for indices past MaxInt32, Lemire's multiply-shift draw below.
func (r Rand) Shuffle(n int, swap func(i, j int)) {
	if n < 0 {
		panic("mt19937: invalid argument to Shuffle")
	}
	i := n - 1
	for ; i > 1<<31-1-1; i-- {
		swap(i, int(r.Int63n(int64(i+1))))
	}
	for ; i > 0; i-- {
		swap(i, int(r.int31n(int32(i+1))))
	}
}

// int31n is math/rand's unexported Lemire draw in [0, n).
func (r Rand) int31n(n int32) int32 {
	v := r.uint32()
	prod := uint64(v) * uint64(n)
	low := uint32(prod)
	if low < uint32(n) {
		thresh := uint32(-n) % uint32(n)
		for low < thresh {
			v = r.uint32()
			prod = uint64(v) * uint64(n)
			low = uint32(prod)
		}
	}
	return int32(prod >> 32)
}

// Bound is Intn(n) precomputed for a fixed n: the rejection threshold and,
// for n ≤ MaxInt32, a reciprocal that turns the remainder into two
// multiplications. IntnBound(b) consumes and returns exactly what Intn(n)
// would, including the power-of-two mask path and the Int63n path for
// n > MaxInt32.
type Bound struct {
	n     uint64
	shift uint   // 33 selects Int31 draws (n ≤ MaxInt32), 1 selects Int63
	pow2  bool   // mask instead of rejection
	max   uint64 // largest accepted draw
	recip uint64 // ⌈2⁶⁴/n⌉ for the 31-bit remainder; 0 on the Int63n path
}

// NewBound precomputes Intn(n). It panics if n <= 0.
func NewBound(n int) Bound {
	if n <= 0 {
		panic("mt19937: invalid argument to NewBound")
	}
	b := Bound{n: uint64(n), pow2: n&(n-1) == 0}
	if n <= 1<<31-1 {
		b.shift = 33
		b.max = (1 << 31) - 1 - (1<<31)%b.n
		b.recip = ^uint64(0)/b.n + 1
	} else {
		b.shift = 1
		b.max = (1 << 63) - 1 - (1<<63)%b.n
	}
	return b
}

// IntnBound returns r.Intn(n) for the n that b was built with.
func (r Rand) IntnBound(b *Bound) int {
	v := r.src.Uint64() >> b.shift
	if b.pow2 {
		return int(v & (b.n - 1))
	}
	for v > b.max {
		v = r.src.Uint64() >> b.shift
	}
	if b.recip == 0 {
		return int(v % b.n)
	}
	// Lemire, Kaser and Kurz, "Faster remainder by direct computation"
	// (2019): for 32-bit v and n, the high word of (⌈2⁶⁴/n⌉·v mod 2⁶⁴)·n
	// is exactly v mod n.
	hi, _ := bits.Mul64(b.recip*v, b.n)
	return int(hi)
}

// DeriveSeed derives the seed of stream idx from a base seed with a
// splitmix64 finalizer, so consecutive indices give decorrelated streams.
// The result depends only on (base, idx). harness.DeriveSeed (job seeds)
// and the agent engine's shard streams both derive through it.
func DeriveSeed(base int64, idx int) int64 {
	z := uint64(base) + uint64(idx+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

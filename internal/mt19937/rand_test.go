package mt19937

import (
	"math"
	"math/rand"
	"testing"
)

// pair returns a math/rand wrapper and a concrete Rand over two
// generators with the same seed; a draw-for-draw match leaves both in the
// same state.
func pair(seed int64) (*rand.Rand, Rand) {
	return rand.New(New(seed)), NewRand(New(seed))
}

// sameState checks that ref and got consumed the same number of words.
func sameState(t *testing.T, ref *rand.Rand, got Rand) {
	t.Helper()
	if a, b := ref.Uint64(), got.Source().Uint64(); a != b {
		t.Fatalf("streams out of step after the draws: next word %d vs %d", a, b)
	}
}

// drawBounds covers n = 1, powers of two, odd and even non-powers, 2³⁰+1
// (the Int31n rejection rate is ≈50% there), MaxInt32 and MaxInt32+1 (the
// switch from Int31n to Int63n), and 63-bit bounds on both paths.
var drawBounds = []int64{
	1, 2, 3, 7, 10, 64, 100, 1023, 1024, 1025, 1999, 1 << 20, 1<<30 - 1, 1 << 30, 1<<30 + 1,
	1<<31 - 2, math.MaxInt32, math.MaxInt32 + 1, 1<<32 + 1, 1 << 40, 1<<62 + 1, math.MaxInt64,
}

func TestIntnMatchesMathRand(t *testing.T) {
	for _, n := range drawBounds {
		ref, got := pair(n)
		refB, viaBound := pair(n)
		b := NewBound(int(n))
		for i := 0; i < 2000; i++ {
			want := ref.Intn(int(n))
			if g := got.Intn(int(n)); g != want {
				t.Fatalf("n=%d draw %d: Intn %d, math/rand %d", n, i, g, want)
			}
			if g, w := viaBound.IntnBound(&b), refB.Intn(int(n)); g != w || w != want {
				t.Fatalf("n=%d draw %d: IntnBound %d, math/rand %d", n, i, g, w)
			}
		}
		sameState(t, ref, got)
		sameState(t, refB, viaBound)
	}
}

// TestBoundManyDivisors checks the reciprocal remainder across thousands
// of divisors drawn from the whole 31-bit range and near its top.
func TestBoundManyDivisors(t *testing.T) {
	pick := rand.New(New(9))
	for k := 0; k < 4000; k++ {
		n := 1 + pick.Intn(math.MaxInt32)
		if k%4 == 0 {
			n = math.MaxInt32 - pick.Intn(1<<16)
		}
		ref, got := pair(int64(k))
		b := NewBound(n)
		for i := 0; i < 16; i++ {
			if g, w := got.IntnBound(&b), ref.Intn(n); g != w {
				t.Fatalf("n=%d draw %d: IntnBound %d, math/rand %d", n, i, g, w)
			}
		}
		sameState(t, ref, got)
	}
}

func TestInt63nMatchesMathRand(t *testing.T) {
	for _, n := range drawBounds {
		ref, got := pair(n + 1)
		for i := 0; i < 2000; i++ {
			if g, w := got.Int63n(n), ref.Int63n(n); g != w {
				t.Fatalf("n=%d draw %d: Int63n %d, math/rand %d", n, i, g, w)
			}
		}
		sameState(t, ref, got)
	}
}

func TestInt31nMatchesMathRand(t *testing.T) {
	for _, n := range drawBounds {
		if n > math.MaxInt32 {
			continue
		}
		ref, got := pair(n + 2)
		for i := 0; i < 2000; i++ {
			if g, w := got.Int31n(int32(n)), ref.Int31n(int32(n)); g != w {
				t.Fatalf("n=%d draw %d: Int31n %d, math/rand %d", n, i, g, w)
			}
		}
		sameState(t, ref, got)
	}
}

func TestFloat64MatchesMathRand(t *testing.T) {
	ref, got := pair(2004)
	for i := 0; i < 100000; i++ {
		if g, w := got.Float64(), ref.Float64(); g != w {
			t.Fatalf("draw %d: Float64 %v, math/rand %v", i, g, w)
		}
	}
	sameState(t, ref, got)
}

func TestWordsMatchMathRand(t *testing.T) {
	ref, got := pair(11)
	for i := 0; i < 10000; i++ {
		if g, w := got.int63(), ref.Int63(); g != w {
			t.Fatalf("draw %d: int63 %d, math/rand Int63 %d", i, g, w)
		}
		if g, w := got.int31(), ref.Int31(); g != w {
			t.Fatalf("draw %d: int31 %d, math/rand Int31 %d", i, g, w)
		}
		if g, w := got.uint32(), ref.Uint32(); g != w {
			t.Fatalf("draw %d: uint32 %d, math/rand Uint32 %d", i, g, w)
		}
	}
	sameState(t, ref, got)
}

func TestShuffleMatchesMathRand(t *testing.T) {
	for n := 0; n <= 70; n++ {
		ref, got := pair(int64(n) * 7)
		a, b := make([]int, n), make([]int, n)
		for i := range a {
			a[i], b[i] = i, i
		}
		for round := 0; round < 5; round++ {
			ref.Shuffle(n, func(i, j int) { a[i], a[j] = a[j], a[i] })
			got.Shuffle(n, func(i, j int) { b[i], b[j] = b[j], b[i] })
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("n=%d round %d: permutations differ at %d", n, round, i)
				}
			}
		}
		sameState(t, ref, got)
	}
}

// TestInterleavedDraws mixes every draw kind on one stream, as the agent
// engine does, against the same sequence through math/rand.
func TestInterleavedDraws(t *testing.T) {
	ref, got := pair(77)
	peers := NewBound(1999)
	for i := 0; i < 5000; i++ {
		if g, w := got.IntnBound(&peers), ref.Intn(1999); g != w {
			t.Fatalf("step %d: IntnBound %d, math/rand %d", i, g, w)
		}
		if g, w := got.Float64(), ref.Float64(); g != w {
			t.Fatalf("step %d: Float64 %v, math/rand %v", i, g, w)
		}
		if g, w := got.Intn(i+1), ref.Intn(i+1); g != w {
			t.Fatalf("step %d: Intn %d, math/rand %d", i, g, w)
		}
	}
	sameState(t, ref, got)
}

func TestDrawPanicsMatchMathRand(t *testing.T) {
	r := NewRand(New(1))
	for name, f := range map[string]func(){
		"Intn(0)":     func() { r.Intn(0) },
		"Int31n(-1)":  func() { r.Int31n(-1) },
		"Int63n(0)":   func() { r.Int63n(0) },
		"Shuffle(-1)": func() { r.Shuffle(-1, func(int, int) {}) },
		"NewBound(0)": func() { NewBound(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestDeriveSeedVector(t *testing.T) {
	// splitmix64 of base + (idx+1)·golden-gamma; pinned because job seeds
	// and shard streams are persisted through it.
	if got := DeriveSeed(0, 0); got != -2152535657050944081 {
		t.Fatalf("DeriveSeed(0, 0) = %d", got)
	}
	if DeriveSeed(42, 3) == DeriveSeed(42, 4) {
		t.Fatal("adjacent indices collided")
	}
}

// FuzzDrawsMatchMathRand checks one draw kind with one bound, many times
// on one seed, against rand.New(New(seed)). op selects Intn, Int31n,
// Int63n, Float64, Shuffle or IntnBound; bound is folded into the
// operation's valid range.
func FuzzDrawsMatchMathRand(f *testing.F) {
	f.Add(int64(1), uint8(0), int64(1<<30+1))
	f.Add(int64(2), uint8(5), int64(1024))
	f.Add(int64(3), uint8(2), int64(math.MaxInt32+1))
	f.Fuzz(func(t *testing.T, seed int64, op uint8, bound int64) {
		n := bound & math.MaxInt64
		if n == 0 {
			n = 1
		}
		ref, got := pair(seed)
		switch op % 6 {
		case 0:
			for i := 0; i < 64; i++ {
				if g, w := got.Intn(int(n)), ref.Intn(int(n)); g != w {
					t.Fatalf("Intn(%d) draw %d: %d, math/rand %d", n, i, g, w)
				}
			}
		case 1:
			m := int32(n & math.MaxInt32)
			if m == 0 {
				m = 1
			}
			for i := 0; i < 64; i++ {
				if g, w := got.Int31n(m), ref.Int31n(m); g != w {
					t.Fatalf("Int31n(%d) draw %d: %d, math/rand %d", m, i, g, w)
				}
			}
		case 2:
			for i := 0; i < 64; i++ {
				if g, w := got.Int63n(n), ref.Int63n(n); g != w {
					t.Fatalf("Int63n(%d) draw %d: %d, math/rand %d", n, i, g, w)
				}
			}
		case 3:
			for i := 0; i < 64; i++ {
				if g, w := got.Float64(), ref.Float64(); g != w {
					t.Fatalf("Float64 draw %d: %v, math/rand %v", i, g, w)
				}
			}
		case 4:
			size := int(n % 300)
			a, b := make([]int, size), make([]int, size)
			for i := range a {
				a[i], b[i] = i, i
			}
			ref.Shuffle(size, func(i, j int) { a[i], a[j] = a[j], a[i] })
			got.Shuffle(size, func(i, j int) { b[i], b[j] = b[j], b[i] })
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("Shuffle(%d): permutations differ at %d", size, i)
				}
			}
		case 5:
			b := NewBound(int(n))
			for i := 0; i < 64; i++ {
				if g, w := got.IntnBound(&b), ref.Intn(int(n)); g != w {
					t.Fatalf("IntnBound(%d) draw %d: %d, math/rand %d", n, i, g, w)
				}
			}
		}
		sameState(t, ref, got)
	})
}

var sinkInt int
var sinkFloat float64

// BenchmarkDraws pairs each draw through math/rand's wrapper (the path the
// agent engine used before the concrete API, kept as the "mathrand"
// variant) with the concrete draws. One op is 4096 draws; ns/draw is the
// comparable figure.
func BenchmarkDraws(b *testing.B) {
	const draws = 4096
	const n = 19999 // N−1 for an N = 2·10⁴ group
	perDraw := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/draws, "ns/draw")
	}
	b.Run("Intn/mathrand", func(b *testing.B) {
		r := rand.New(New(1))
		for b.Loop() {
			for i := 0; i < draws; i++ {
				sinkInt += r.Intn(n)
			}
		}
		perDraw(b)
	})
	b.Run("Intn/concrete", func(b *testing.B) {
		r := NewRand(New(1))
		for b.Loop() {
			for i := 0; i < draws; i++ {
				sinkInt += r.Intn(n)
			}
		}
		perDraw(b)
	})
	b.Run("Intn/bound", func(b *testing.B) {
		r := NewRand(New(1))
		bound := NewBound(n)
		for b.Loop() {
			for i := 0; i < draws; i++ {
				sinkInt += r.IntnBound(&bound)
			}
		}
		perDraw(b)
	})
	b.Run("Float64/mathrand", func(b *testing.B) {
		r := rand.New(New(1))
		for b.Loop() {
			for i := 0; i < draws; i++ {
				sinkFloat += r.Float64()
			}
		}
		perDraw(b)
	})
	b.Run("Float64/concrete", func(b *testing.B) {
		r := NewRand(New(1))
		for b.Loop() {
			for i := 0; i < draws; i++ {
				sinkFloat += r.Float64()
			}
		}
		perDraw(b)
	})
}

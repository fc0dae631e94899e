package asyncnet

import (
	"maps"
	"reflect"
	"testing"
	"time"

	"odeproto/internal/core"
	"odeproto/internal/endemic"
	"odeproto/internal/harness"
	"odeproto/internal/ode"
)

func TestRunnerSegmentsConservePopulation(t *testing.T) {
	proto := mustTranslate(t, "x' = -x*y\ny' = x*y", core.Options{})
	r, err := NewRunner(Config{
		N: 60, Protocol: proto,
		Initial:    map[ode.Var]int{"x": 50, "y": 10},
		Seed:       11,
		BasePeriod: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two coarse segments plus one single-period segment; the population
	// must be conserved across segment boundaries and the period counter
	// must add up.
	r.Run(5)
	r.Run(3)
	r.Step()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if r.Period() != 9 {
		t.Fatalf("period = %d, want 9", r.Period())
	}
	if r.Alive() != 60 {
		t.Fatalf("population not conserved: alive = %d, want 60", r.Alive())
	}
	total := 0
	for _, c := range r.Counts() {
		total += c
	}
	if total != 60 {
		t.Fatalf("counts sum to %d, want 60", total)
	}
	// The epidemic protocol only converts x → y, so y must not shrink.
	if r.Count("y") < 10 {
		t.Fatalf("y = %d shrank below its initial 10", r.Count("y"))
	}
	if r.MessagesSent() == 0 {
		t.Fatal("no messages recorded across segments")
	}
}

func TestRunnerThroughHarnessJob(t *testing.T) {
	proto := mustTranslate(t, "x' = -x*y\ny' = x*y", core.Options{})
	var finalY int
	res := harness.Run(harness.Job{
		Name: "async-epidemic",
		Seed: 5,
		New: func(seed int64) (harness.Runner, error) {
			return NewRunner(Config{
				N: 40, Protocol: proto,
				Initial:    map[ode.Var]int{"x": 30, "y": 10},
				Seed:       seed,
				BasePeriod: time.Millisecond,
			})
		},
		Periods: 4,
		Done: func(r harness.Runner) error {
			finalY = r.Count("y")
			return nil
		},
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if finalY < 10 || finalY > 40 {
		t.Fatalf("final y = %d outside [10, 40]", finalY)
	}
}

func TestRunnerRejectsPerturbations(t *testing.T) {
	proto := mustTranslate(t, "x' = -x*y\ny' = x*y", core.Options{})
	r, err := NewRunner(Config{
		N: 10, Protocol: proto,
		Initial: map[ode.Var]int{"x": 9, "y": 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Perturb(harness.Perturbation{Kind: harness.KillFraction, Frac: 0.5}); err != harness.ErrUnsupported {
		t.Fatalf("Perturb error = %v, want ErrUnsupported", err)
	}
}

// TestNewRunnerValidation: NewRunner rejects at construction every config
// that Run rejects (bar Periods, which it takes per segment), rather than
// accepting it and failing — or silently dropping a stray initial state —
// once segments run.
func TestNewRunnerValidation(t *testing.T) {
	proto := mustTranslate(t, "x' = -x*y\ny' = x*y", core.Options{})
	for _, c := range invalidConfigs(proto) {
		if c.periodsOnly {
			continue
		}
		if _, err := NewRunner(c.cfg); err == nil {
			t.Errorf("%s: NewRunner accepted the config", c.name)
		}
	}
}

// TestRunnerSegmentsMatchFreshRuns: a Runner reuses one scheduler for all
// its segments, and every segment must equal a freshly built one-shot run
// seeded with DeriveSeed(seed, segment) from the previous segment's
// counts. Mixed segment lengths and message loss (so timeouts decide
// instances) would expose stale calendar or arena slots, tallies or
// pending instances carried across the reset.
func TestRunnerSegmentsMatchFreshRuns(t *testing.T) {
	fig1, err := endemic.NewFigure1Protocol(endemic.Params{B: 2, Gamma: 0.2, Alpha: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	tokens := mustTranslate(t, "x' = -y^2\ny' = y^2", core.Options{})
	for _, cfg := range []Config{
		{N: 300, Protocol: fig1, Initial: map[ode.Var]int{"x": 200, "y": 80, "z": 20}, Seed: 3, Drift: 0.6, DropProb: 0.1},
		{N: 200, Protocol: tokens, Initial: map[ode.Var]int{"x": 120, "y": 80}, Seed: 8, DropProb: 0.3, TokenTTL: 3},
	} {
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		counts := cfg.Initial
		for seg, periods := range []int{3, 1, 1, 6, 2, 1} {
			before := r.MessagesSent()
			beforeTr := maps.Clone(r.TransitionsTotal())
			r.Run(periods)

			fresh := cfg
			fresh.Seed = harness.DeriveSeed(cfg.Seed, seg)
			fresh.Periods = periods
			fresh.Initial = counts
			want, err := Run(fresh)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(r.Counts(), want.Counts) {
				t.Fatalf("segment %d counts %v, fresh run %v", seg, r.Counts(), want.Counts)
			}
			if got := r.MessagesSent() - before; got != want.MessagesSent {
				t.Fatalf("segment %d sent %d messages, fresh run %d", seg, got, want.MessagesSent)
			}
			for e, n := range want.Transitions {
				if got := r.TransitionsTotal()[e] - beforeTr[e]; got != n {
					t.Fatalf("segment %d edge %v: %d transitions, fresh run %d", seg, e, got, n)
				}
			}
			counts = want.Counts
		}
	}
}

// TestRunnerSegmentAllocsIndependentOfN: once warm, a segment reuses the
// scheduler's buffers, so its allocations do not grow with the group.
func TestRunnerSegmentAllocsIndependentOfN(t *testing.T) {
	proto := mustTranslate(t, "x' = -4*x*y + 0.01*z\ny' = 4*x*y - y\nz' = y - 0.01*z", core.Options{})
	allocs := func(n int) float64 {
		r, err := NewRunner(Config{
			N: n, Protocol: proto,
			Initial:  map[ode.Var]int{"x": n - n/10, "y": n / 10},
			Seed:     1,
			DropProb: 0.05,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			r.Step()
		}
		return testing.AllocsPerRun(10, r.Step)
	}
	small, large := allocs(1000), allocs(4000)
	t.Logf("allocations per warm segment: %v at N=1000, %v at N=4000", small, large)
	if large > small+2 {
		t.Fatalf("a warm single-period segment allocates %v times at N=4000 against %v at N=1000", large, small)
	}
}

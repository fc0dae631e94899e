package asyncnet

import (
	"fmt"

	"odeproto/internal/harness"
	"odeproto/internal/ode"
)

// Runner adapts the asynchronous runtime to the harness.Runner interface,
// so sweeps can execute on the paper's true system model (§1) through the
// same scheduler as the synchronous engines. The adapter executes periods
// in segments: each Run(k) call is one asynchronous execution of k
// periods, drained to quiescence, whose initial population is the
// previous segment's final population, seeded deterministically from the
// base seed and the segment index. Population counts are continuous
// across segments; per-process identity is not (asyncnet processes carry
// no addressable identity anyway).
//
// NewRunner validates the config and compiles the protocol once. In
// ModeVirtual (the default) the Runner also owns one scheduler for its
// whole life: every segment resets it in place, so a segment costs
// O(events) — a per-period Step is as cheap per period as a coarse Run —
// and produces exactly what a freshly built scheduler would. The whole
// segment sequence is deterministic — a fixed (config, call sequence)
// reproduces byte-identical counts, transitions, and message totals —
// which is what lets internal/service cache and persist virtual asyncnet
// jobs. In ModeWallclock every segment launches a fresh goroutine group.
type Runner struct {
	cfg     Config // validated, defaults applied
	states  []ode.Var
	actions [][]*compiled
	virtual *virtualRunner // nil in ModeWallclock

	counts      map[ode.Var]int
	period      int
	segment     int
	transitions map[[2]ode.Var]int
	messages    int
}

// NewRunner builds an asynchronous harness Runner, rejecting every config
// that Run would reject. The config's Periods field is ignored; periods
// are supplied per Run call.
func NewRunner(cfg Config) (*Runner, error) {
	states, actions, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	r := &Runner{
		cfg:         cfg,
		states:      states,
		actions:     actions,
		counts:      make(map[ode.Var]int, len(states)),
		transitions: make(map[[2]ode.Var]int),
	}
	for _, s := range states {
		r.counts[s] = cfg.Initial[s]
	}
	if cfg.Mode == ModeVirtual {
		r.virtual = newVirtualRunner(&r.cfg, states, actions)
	}
	return r, nil
}

// Step executes one protocol period (one single-period segment).
func (r *Runner) Step() { r.Run(1) }

// Run executes the given number of periods as one asynchronous segment.
func (r *Runner) Run(periods int) {
	if periods <= 0 {
		return
	}
	seed := harness.DeriveSeed(r.cfg.Seed, r.segment)
	var res *Result
	if r.virtual != nil {
		res = r.virtual.run(seed, periods, r.counts)
	} else {
		seg := r.cfg
		seg.Seed, seg.Periods, seg.Initial = seed, periods, r.counts
		res = runWallclock(&seg, r.states, r.actions)
	}
	r.counts = res.Counts
	for k, v := range res.Transitions {
		r.transitions[k] += v
	}
	r.messages += res.MessagesSent
	r.period += periods
	r.segment++
}

// Err reports a failed segment for the harness's optional error hook. It
// is always nil: NewRunner rejects every config a segment could fail on.
func (r *Runner) Err() error { return nil }

// Period returns the number of completed protocol periods.
func (r *Runner) Period() int { return r.period }

// Alive returns the population size (asyncnet models no crashes).
func (r *Runner) Alive() int {
	n := 0
	for _, c := range r.counts {
		n += c
	}
	return n
}

// Counts returns a copy of the per-state population.
func (r *Runner) Counts() map[ode.Var]int {
	out := make(map[ode.Var]int, len(r.counts))
	for k, v := range r.counts {
		out[k] = v
	}
	return out
}

// Count returns the population of one state.
func (r *Runner) Count(s ode.Var) int { return r.counts[s] }

// MessagesSent returns the cumulative transport sends across all segments.
func (r *Runner) MessagesSent() int { return r.messages }

// TransitionsTotal returns the cumulative per-edge transition counts
// across all segments.
func (r *Runner) TransitionsTotal() map[[2]ode.Var]int { return r.transitions }

// Perturb is unsupported: the asynchronous runtime models no process
// failures (its loss model is per-message).
func (r *Runner) Perturb(p harness.Perturbation) (int, error) {
	switch p.Kind {
	case harness.KillFraction, harness.Kill, harness.Revive, harness.Freeze, harness.Unfreeze:
		return 0, harness.ErrUnsupported
	default:
		return 0, fmt.Errorf("asyncnet: unknown perturbation kind %v", p.Kind)
	}
}

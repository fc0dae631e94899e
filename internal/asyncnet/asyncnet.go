// Package asyncnet executes a compiled protocol on the paper's true
// asynchronous system model (§1): protocol periods start at arbitrary
// offsets, per-process clocks drift within a bound, and messages cross a
// lossy, delaying network — "an asynchronous network … protocol periods
// start at arbitrary times at different processes … our analysis holds
// for the average period across the group".
//
// The model is captured entirely by the *interleaving* of events — period
// firings, message deliveries, timeouts — not by real elapsed time, so the
// package offers two execution substrates behind one protocol logic:
//
//   - ModeVirtual (the default) runs a discrete-event scheduler over
//     virtual time: every occurrence is a timestamped event in a priority
//     queue, timestamps are drawn from the same drift/delay/drop
//     distributions as wallclock mode, and equal timestamps are ordered by
//     a seeded splitmix-derived sequence number assigned at schedule time.
//     A run is a pure function of its Config — bit-reproducible across
//     executions and GOMAXPROCS settings — and executes as fast as the
//     hardware allows (no 2ms-per-period floor, no goroutine-per-process
//     ceiling), which is what makes asyncnet results content-addressable
//     and cacheable in internal/service.
//
//   - ModeWallclock runs one goroutine per process against real timers
//     and channels. It is nondeterministic and real-time-bound, and is
//     kept as the validation oracle: integration tests run the same
//     protocols on genuine goroutine interleavings and observe the same
//     limiting behaviour as the virtual scheduler and the synchronous
//     engines in internal/sim.
package asyncnet

import (
	"fmt"
	"math"
	"sort"
	"time"

	"odeproto/internal/core"
	"odeproto/internal/mt19937"
	"odeproto/internal/ode"
)

// Mode selects the asyncnet execution substrate.
type Mode string

const (
	// ModeVirtual is the virtual-time discrete-event scheduler:
	// deterministic for a fixed Config, runs at CPU speed.
	ModeVirtual Mode = "virtual"
	// ModeWallclock is the goroutine-per-process runtime against real
	// timers: nondeterministic, real-time-bound, kept as the oracle that
	// validates the virtual scheduler against true asynchrony.
	ModeWallclock Mode = "wallclock"
)

// Normalize maps the empty mode to the virtual default and rejects
// anything that is not a known mode.
func (m Mode) Normalize() (Mode, error) {
	switch m {
	case "":
		return ModeVirtual, nil
	case ModeVirtual, ModeWallclock:
		return m, nil
	default:
		return "", fmt.Errorf("asyncnet: unknown mode %q (want %q or %q)", string(m), ModeVirtual, ModeWallclock)
	}
}

// message is the transport envelope. Exactly one field group is used per
// kind. Fields are deliberately narrow: the virtual scheduler keeps
// millions of these inside heap events, so envelope size is heap memory
// traffic.
type message struct {
	from int32
	seq  int32 // query/reply correlation
	inst int32 // instance sequence for timeouts

	kind      messageKind
	state     int16 // reply payload / convert precondition
	convertTo int16 // convert/token destination
	ttl       int16 // token hops remaining
}

type messageKind uint8

const (
	msgQuery messageKind = iota + 1
	msgReply
	msgTimeout
	msgConvert
	msgToken
)

// transport is what the protocol logic needs from its substrate: message
// sends (to which the network's loss/delay model applies) and local
// timeout scheduling (which is lossless — a timer is not a network
// message). The wallclock network and the virtual event scheduler both
// implement it.
type transport interface {
	send(to int, m message)
	timeout(owner int, d time.Duration, m message)
}

// Config configures an asynchronous run.
type Config struct {
	N        int
	Protocol *core.Protocol
	Initial  map[ode.Var]int
	Seed     int64
	// Periods is how many protocol periods each process executes.
	Periods int
	// Mode selects the execution substrate: ModeVirtual (default) or
	// ModeWallclock.
	Mode Mode
	// BasePeriod is the nominal protocol period duration (default 2ms;
	// real deployments use minutes — the dynamics only depend on the
	// period count). In virtual mode it is a unit of virtual time and has
	// no bearing on how long the run takes.
	BasePeriod time.Duration
	// Drift is the relative clock drift bound: each process draws its
	// period duration uniformly from BasePeriod·(1 ± Drift). Default 0.1.
	Drift float64
	// DropProb is the probability a message is lost in transit.
	DropProb float64
	// MaxDelay bounds the uniform random network delay (default
	// BasePeriod/4).
	MaxDelay time.Duration
	// TokenTTL bounds token random walks (default 8).
	TokenTTL int
}

// Result summarizes an asynchronous run.
type Result struct {
	// Counts is the final per-state population.
	Counts map[ode.Var]int
	// Transitions counts state transitions across the whole run.
	Transitions map[[2]ode.Var]int
	// MessagesSent counts transport sends (before drops).
	MessagesSent int
}

// instance is one in-flight sampling action. Its query seqs are the
// len(action.samples) consecutive numbers after its id (see startPeriod),
// so a reply is routed by seq range rather than through a per-query
// table. Each query is answered at most once, so counting the replies
// that match their target state is all evaluate needs.
type instance struct {
	action  *compiled
	id      int32
	waiting int32 // replies still outstanding
	hits    int32 // replies whose state equals the sampled target state
}

type compiled struct {
	kind    core.ActionKind
	coin    float64
	samples []int16
	from    int16
	to      int16
}

// process is one asynchronous protocol participant. The protocol logic
// below is substrate-agnostic: it talks to the run through the transport
// interface and its own rng, so the wallclock goroutine loop and the
// virtual event loop drive the exact same code.
type process struct {
	id      int
	cfg     *Config
	tr      transport
	rng     prng // per-process stream (wallclock) or the run's shared stream (virtual)
	actions [][]*compiled

	state   int16
	seq     int32
	pending []instance // undecided sampling instances; decided ones are removed
	// tally counts transitions from×to, row-major over the protocol
	// states (actions has one table per state, so its length is the row
	// width). Virtual mode shares one tally across the group — a single
	// event loop writes it — while wallclock gives every goroutine its own.
	tally []int
}

// prng exposes the draw helpers the protocol logic needs directly on the
// Mersenne Twister, with no interface dispatch per draw (millions of draws
// sit on the virtual scheduler's hot path). Bounded draws are
// mt19937.Rand's Int63n, math/rand's exactly uniform rejection sampling;
// Float64 is the generator's own 53-bit conversion.
type prng struct{ mt *mt19937.MT19937 }

func (r prng) Float64() float64 { return r.mt.Float64() }

func (r prng) Intn(n int) int { return int(r.Int63n(int64(n))) }

func (r prng) Int63n(n int64) int64 { return mt19937.NewRand(r.mt).Int63n(n) }

func (p *process) transitionTo(to int16) {
	from := p.state
	if from == to {
		return
	}
	p.state = to
	p.tally[int(from)*len(p.actions)+int(to)]++
}

func (p *process) randomPeer() int {
	t := p.rng.Intn(p.cfg.N - 1)
	if t >= p.id {
		t++
	}
	return t
}

// periodFor draws this process's next period duration from the drifting
// clock model: uniform in BasePeriod·(1 ± Drift).
func (p *process) periodFor() time.Duration {
	f := 1 + p.cfg.Drift*(2*p.rng.Float64()-1)
	return time.Duration(float64(p.cfg.BasePeriod) * f)
}

// startOffset draws the arbitrary offset of this process's first period
// (paper: "protocol periods start at arbitrary times at different
// processes").
func (p *process) startOffset() time.Duration {
	return time.Duration(p.rng.Int63n(int64(p.cfg.BasePeriod) + 1))
}

// startPeriod launches this period's actions.
func (p *process) startPeriod() {
	for _, a := range p.actions[p.state] {
		switch a.kind {
		case core.Flip:
			if p.rng.Float64() < a.coin {
				p.transitionTo(a.to)
			}
		case core.Push:
			for range a.samples {
				if a.coin >= 1 || p.rng.Float64() < a.coin {
					p.tr.send(p.randomPeer(), message{
						kind: msgConvert, from: int32(p.id), state: a.from, convertTo: a.to,
					})
				}
			}
		case core.Sample, core.SampleAny, core.Token:
			p.seq++
			inst := p.seq
			p.pending = append(p.pending, instance{action: a, id: inst, waiting: int32(len(a.samples))})
			for range a.samples {
				p.seq++
				p.tr.send(p.randomPeer(), message{kind: msgQuery, from: int32(p.id), seq: p.seq})
			}
			p.tr.timeout(p.id, p.cfg.BasePeriod/2, message{kind: msgTimeout, inst: inst})
		}
	}
}

// evaluate decides the completed (or timed-out) instance pending[i] and
// removes it, so a reply still in flight finds no instance and is
// ignored.
func (p *process) evaluate(i int) {
	in := p.pending[i]
	last := len(p.pending) - 1
	p.pending[i] = p.pending[last]
	p.pending = p.pending[:last]
	a := in.action
	switch a.kind {
	case core.Sample, core.Token:
		if int(in.hits) != len(a.samples) || p.rng.Float64() >= a.coin {
			return
		}
		if a.kind == core.Sample {
			if p.state == a.from {
				p.transitionTo(a.to)
			}
			return
		}
		p.tr.send(p.randomPeer(), message{
			kind: msgToken, from: int32(p.id), state: a.from, convertTo: a.to,
			ttl: int16(p.cfg.TokenTTL),
		})
	case core.SampleAny:
		if in.hits > 0 && p.rng.Float64() < a.coin && p.state == a.from {
			p.transitionTo(a.to)
		}
	}
}

func (p *process) handle(m message) {
	switch m.kind {
	case msgQuery:
		p.tr.send(int(m.from), message{kind: msgReply, from: int32(p.id), seq: m.seq, state: p.state})
	case msgReply:
		for i := range p.pending {
			in := &p.pending[i]
			pos := m.seq - in.id - 1
			if pos < 0 || int(pos) >= len(in.action.samples) {
				continue
			}
			if m.state == in.action.samples[pos] {
				in.hits++
			}
			if in.waiting--; in.waiting == 0 {
				p.evaluate(i)
			}
			return
		}
	case msgTimeout:
		for i := range p.pending {
			if p.pending[i].id == m.inst {
				p.evaluate(i)
				return
			}
		}
	case msgConvert:
		if p.state == m.state {
			p.transitionTo(m.convertTo)
		}
	case msgToken:
		if p.state == m.state {
			p.transitionTo(m.convertTo)
			return
		}
		if m.ttl > 1 {
			m.ttl--
			p.tr.send(p.randomPeer(), m)
		}
	}
}

// validate applies defaults in place and compiles the protocol into
// per-state action tables. It checks everything a run needs except
// Periods, which a Runner supplies per segment.
func (cfg *Config) validate() (states []ode.Var, actions [][]*compiled, err error) {
	if cfg.N < 2 {
		return nil, nil, fmt.Errorf("asyncnet: group size %d too small", cfg.N)
	}
	if cfg.Protocol == nil {
		return nil, nil, fmt.Errorf("asyncnet: nil protocol")
	}
	if err := cfg.Protocol.Validate(); err != nil {
		return nil, nil, fmt.Errorf("asyncnet: %w", err)
	}
	if cfg.Mode, err = cfg.Mode.Normalize(); err != nil {
		return nil, nil, err
	}
	if cfg.BasePeriod <= 0 {
		cfg.BasePeriod = 2 * time.Millisecond
	}
	if cfg.Drift == 0 {
		cfg.Drift = 0.1
	}
	if cfg.Drift < 0 || cfg.Drift >= 1 {
		return nil, nil, fmt.Errorf("asyncnet: drift %v outside [0,1)", cfg.Drift)
	}
	if cfg.MaxDelay == 0 {
		cfg.MaxDelay = cfg.BasePeriod / 4
	}
	if cfg.TokenTTL <= 0 {
		cfg.TokenTTL = 8
	}
	if cfg.TokenTTL > math.MaxInt16 {
		// The transport envelope carries the TTL as an int16; a larger
		// bound would silently wrap and kill tokens after one hop.
		return nil, nil, fmt.Errorf("asyncnet: token TTL %d exceeds the transport bound %d", cfg.TokenTTL, math.MaxInt16)
	}

	states = cfg.Protocol.States
	stateIdx := make(map[ode.Var]int, len(states))
	for i, s := range states {
		stateIdx[s] = i
	}
	actions = make([][]*compiled, len(states))
	for _, a := range cfg.Protocol.Actions {
		ca := &compiled{
			kind: a.Kind,
			coin: a.Coin,
			from: int16(stateIdx[a.From]),
			to:   int16(stateIdx[a.To]),
		}
		for _, s := range a.Samples {
			ca.samples = append(ca.samples, int16(stateIdx[s]))
		}
		owner := stateIdx[a.Owner]
		actions[owner] = append(actions[owner], ca)
	}

	total := 0
	// Validate in sorted-key order so which bad entry the error names is
	// deterministic, not map-iteration-ordered.
	initialStates := make([]string, 0, len(cfg.Initial))
	for s := range cfg.Initial {
		initialStates = append(initialStates, string(s))
	}
	sort.Strings(initialStates)
	for _, name := range initialStates {
		s := ode.Var(name)
		if _, ok := stateIdx[s]; !ok {
			return nil, nil, fmt.Errorf("asyncnet: initial state %q not in protocol", s)
		}
		if cfg.Initial[s] < 0 {
			return nil, nil, fmt.Errorf("asyncnet: negative initial count for %q", s)
		}
		total += cfg.Initial[s]
	}
	if total != cfg.N {
		return nil, nil, fmt.Errorf("asyncnet: initial counts sum to %d, want %d", total, cfg.N)
	}
	return states, actions, nil
}

// buildProcesses lays the group out as one contiguous allocation (N
// separate process allocations are measurable GC weight at scale); the
// caller supplies the substrate (transport) and each process's rng
// stream and transition tally. Every process gets room for as many
// in-flight sampling instances as its busiest state launches per period,
// carved from one shared backing array, so a run allocates no
// per-instance bookkeeping (a process holding more at once — periods
// shorter than the timeout under large drift — grows its own slice).
// Initial states are assigned by layOut.
func buildProcesses(cfg *Config, tr transport, rngFor func(i int) prng, tallyFor func(i int) []int, actions [][]*compiled) []process {
	slots := 0
	for _, as := range actions {
		n := 0
		for _, a := range as {
			switch a.kind {
			case core.Sample, core.SampleAny, core.Token:
				n++
			}
		}
		slots = max(slots, n)
	}
	inflight := make([]instance, cfg.N*slots)
	procs := make([]process, cfg.N)
	for i := range procs {
		procs[i] = process{
			id:      i,
			cfg:     cfg,
			tr:      tr,
			rng:     rngFor(i),
			actions: actions,
			pending: inflight[i*slots : i*slots : (i+1)*slots],
			tally:   tallyFor(i),
		}
	}
	return procs
}

// layOut (re)starts the group from the given per-state population:
// processes are laid out state by state, in protocol state order, with
// fresh sequence numbers and no pending instances.
func layOut(procs []process, states []ode.Var, initial map[ode.Var]int) {
	i := 0
	for si, s := range states {
		for j := 0; j < initial[s]; j++ {
			p := &procs[i]
			p.state, p.seq, p.pending = int16(si), 0, p.pending[:0]
			i++
		}
	}
}

// collectResult assembles the run summary from the final process states
// and the group's from×to transition tally.
func collectResult(states []ode.Var, procs []process, tally []int, sent int) *Result {
	counts := make([]int, len(states))
	for i := range procs {
		counts[procs[i].state]++
	}
	res := &Result{
		Counts:       make(map[ode.Var]int, len(states)),
		Transitions:  make(map[[2]ode.Var]int),
		MessagesSent: sent,
	}
	for si, s := range states {
		res.Counts[s] = counts[si]
	}
	for i, n := range tally {
		if n > 0 {
			res.Transitions[[2]ode.Var{states[i/len(states)], states[i%len(states)]}] = n
		}
	}
	return res
}

// Run executes the protocol asynchronously and returns the final counts.
// Virtual-mode runs are deterministic: a fixed Config reproduces the exact
// Result on any machine at any GOMAXPROCS. Wallclock-mode runs schedule
// real goroutines and are not reproducible.
func Run(cfg Config) (*Result, error) {
	states, actions, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	if cfg.Periods <= 0 {
		return nil, fmt.Errorf("asyncnet: periods must be positive")
	}
	if cfg.Mode == ModeWallclock {
		return runWallclock(&cfg, states, actions), nil
	}
	return newVirtualRunner(&cfg, states, actions).run(cfg.Seed, cfg.Periods, cfg.Initial), nil
}

// Package sim provides the simulation substrate the paper's evaluation
// (§5) runs on: an agent-based synchronous-round engine that executes a
// compiled protocol over N simulated processes (the paper tops out at
// 100,000 hosts; the sharded execution path in shard.go takes the same
// engine to millions), and a fast aggregate (count-based) engine for
// large sweeps.
//
// The agent engine reproduces the paper's experimental environment —
// "multiple instances running synchronously over a simulated network, all
// on a single machine" — with the Mersenne Twister generator the paper
// uses, and supports the evaluation's failure modes: message loss per
// connection attempt, crash-stop and crash-recovery process failures,
// massive correlated failures (Figures 5 and 12), and trace-driven churn
// (Figures 9 and 10).
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"odeproto/internal/core"
	"odeproto/internal/mt19937"
	"odeproto/internal/ode"
)

// Down marks a crashed or departed process in StateOf.
const Down = ode.Var("")

// Config configures an agent-based engine.
type Config struct {
	// N is the group size.
	N int
	// Protocol is the compiled protocol to execute.
	Protocol *core.Protocol
	// Initial gives the starting count per state; counts must sum to N.
	Initial map[ode.Var]int
	// Seed seeds the engine's Mersenne Twister.
	Seed int64
	// MessageLoss is the probability f that any single connection attempt
	// (sample, push contact, or token hop) fails. Lost attempts see no
	// state (they never match).
	MessageLoss float64
	// TokenTTL, when positive, delivers tokens by TTL-bounded random walk
	// instead of membership-directed routing (§6 "Limitations of
	// Tokenizing").
	TokenTTL int
	// InitiallyDown starts that many processes (the highest indices) in
	// the crashed state; they can later be brought in with Revive, which
	// is how open-group joins are modelled. Initial counts must then sum
	// to N − InitiallyDown.
	InitiallyDown int
	// ViewSize, when positive, replaces the paper's maximal-membership
	// assumption with uniform partial views: every process samples targets
	// only from a fixed random view of this many distinct peers. The
	// paper's footnote 1 notes that "well-known results can be used to
	// reduce this size to logarithmic in group size"; setting ViewSize to
	// O(log N) exercises exactly that reduction (see the view-size
	// ablation bench). Zero keeps full membership.
	ViewSize int
	// Shards partitions the N processes into this many contiguous shards,
	// each with its own deterministically derived Mersenne Twister stream,
	// and runs every period's action phase in parallel across the shards.
	// Results depend only on (Seed, Shards), never on the worker count or
	// scheduling, so a fixed K is reproducible on any machine. 0 and 1 both
	// select the original single-stream serial engine, bit-identical to the
	// pre-sharding implementation. See shard.go for the barrier semantics
	// of cross-shard pushes and tokens at K > 1.
	Shards int
	// ShardWorkers bounds the worker pool that executes the shards when
	// Shards > 1; 0 picks min(Shards, GOMAXPROCS). It is a throughput knob
	// only — the output is byte-identical at any value.
	ShardWorkers int
	// OnTransition, when non-nil, is invoked for every state transition
	// with the process index, the states involved, and the period number.
	// Crash/revive events are not transitions.
	OnTransition func(proc int, from, to ode.Var, period int)
}

// Engine is an agent-based synchronous-round simulator.
type Engine struct {
	cfg      Config
	states   []ode.Var
	stateIdx map[ode.Var]int
	actions  [][]compiledAction // actions per state index

	// rng is the engine's Mersenne Twister stream, drawn with math/rand's
	// algorithms but without its interface dispatch; pub is the
	// *rand.Rand view of the same stream that Rand hands out.
	rng   mt19937.Rand
	pub   *rand.Rand
	peer  mt19937.Bound // Intn(N−1): a uniform peer other than self
	view  mt19937.Bound // Intn(ViewSize): a uniform entry of a partial view
	group mt19937.Bound // Intn(N): a uniform process (views, TTL hops)

	state    []int16 // current state per process, -1 = down
	snapshot []int16 // state at period start
	moved    []bool  // transition already applied this period
	counts   []int   // alive processes per state
	alive    int
	period   int

	// tally counts last period's transitions from×to, row-major over the
	// states; transitions is TransitionsLastPeriod's map view of it.
	tally       []int
	transitions map[[2]ode.Var]int
	messages    int // last period's connection attempts
	tokensLost  int // last period's dropped tokens

	// tokenPool holds, per target state, a shuffled list of candidate
	// processes for directed token delivery, built lazily once per period
	// and consumed by a cursor — keeping delivery O(1) amortized per
	// token instead of O(N).
	tokenPool   [][]int
	tokenCursor []int
	tokenBuilt  []bool

	// views holds each process's partial membership view (row-major,
	// ViewSize entries per process) when Config.ViewSize > 0.
	views []int32

	// frozen marks processes that hold their state and execute no
	// actions (they still answer contacts). Models the paper's
	// "chronically averse" heterogeneous hosts (§5.1).
	frozen []bool

	// Sharded execution state (Config.Shards > 1); see shard.go.
	shards       []shardState
	barrierRng   mt19937.Rand // resolves cross-shard intents at the barrier
	shardWorkers int
}

type compiledAction struct {
	kind    core.ActionKind
	coin    float64
	samples []int16
	from    int16
	to      int16
}

// New builds an engine. The protocol must validate and the initial counts
// must sum to N.
func New(cfg Config) (*Engine, error) {
	if cfg.N <= 1 {
		// N = 1 leaves pickPeer an empty Intn(N-1) bound: every contact
		// action needs at least one peer other than self to sample.
		return nil, fmt.Errorf("sim: group size %d too small (peer sampling needs N >= 2)", cfg.N)
	}
	if cfg.Protocol == nil {
		return nil, fmt.Errorf("sim: nil protocol")
	}
	if err := cfg.Protocol.Validate(); err != nil {
		return nil, fmt.Errorf("sim: invalid protocol: %w", err)
	}
	if cfg.MessageLoss < 0 || cfg.MessageLoss >= 1 {
		return nil, fmt.Errorf("sim: message loss %v outside [0,1)", cfg.MessageLoss)
	}
	e := &Engine{
		cfg:      cfg,
		states:   cfg.Protocol.States,
		stateIdx: make(map[ode.Var]int, len(cfg.Protocol.States)),
		rng:      mt19937.NewRand(mt19937.New(cfg.Seed)),
		peer:     mt19937.NewBound(cfg.N - 1),
		group:    mt19937.NewBound(cfg.N),
	}
	for i, s := range e.states {
		e.stateIdx[s] = i
	}
	e.actions = make([][]compiledAction, len(e.states))
	for _, a := range cfg.Protocol.Actions {
		ca := compiledAction{
			kind: a.Kind,
			coin: a.Coin,
			from: int16(e.stateIdx[a.From]),
			to:   int16(e.stateIdx[a.To]),
		}
		for _, s := range a.Samples {
			ca.samples = append(ca.samples, int16(e.stateIdx[s]))
		}
		owner := e.stateIdx[a.Owner]
		e.actions[owner] = append(e.actions[owner], ca)
	}

	if cfg.InitiallyDown < 0 || cfg.InitiallyDown >= cfg.N {
		return nil, fmt.Errorf("sim: InitiallyDown %d outside [0, N)", cfg.InitiallyDown)
	}
	up := cfg.N - cfg.InitiallyDown
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
		c := cfg.Initial[s]
		if _, ok := e.stateIdx[s]; !ok {
			return nil, fmt.Errorf("sim: initial state %q not in protocol", s)
		}
		if c < 0 {
			return nil, fmt.Errorf("sim: negative initial count for %q", s)
		}
		total += c
	}
	if total != up {
		return nil, fmt.Errorf("sim: initial counts sum to %d, want %d (N minus InitiallyDown)", total, up)
	}

	e.state = make([]int16, cfg.N)
	e.snapshot = make([]int16, cfg.N)
	e.moved = make([]bool, cfg.N)
	e.counts = make([]int, len(e.states))
	idx := 0
	for _, s := range e.states { // deterministic layout in state order
		c := cfg.Initial[s]
		si := int16(e.stateIdx[s])
		for i := 0; i < c; i++ {
			e.state[idx] = si
			idx++
		}
		e.counts[e.stateIdx[s]] = c
	}
	for ; idx < cfg.N; idx++ {
		e.state[idx] = -1
	}
	e.alive = up
	e.tally = make([]int, len(e.states)*len(e.states))
	e.transitions = make(map[[2]ode.Var]int)
	e.frozen = make([]bool, cfg.N)
	e.tokenPool = make([][]int, len(e.states))
	e.tokenCursor = make([]int, len(e.states))
	e.tokenBuilt = make([]bool, len(e.states))

	if cfg.Shards < 0 || cfg.Shards > cfg.N {
		return nil, fmt.Errorf("sim: shard count %d outside [0, N = %d]", cfg.Shards, cfg.N)
	}
	if cfg.Shards > 1 {
		e.initShards()
	}

	if cfg.ViewSize > 0 {
		if cfg.ViewSize >= cfg.N {
			return nil, fmt.Errorf("sim: view size %d must be below N = %d", cfg.ViewSize, cfg.N)
		}
		e.view = mt19937.NewBound(cfg.ViewSize)
		e.views = make([]int32, cfg.N*cfg.ViewSize)
		seen := make(map[int32]bool, cfg.ViewSize)
		for p := 0; p < cfg.N; p++ {
			for k := range seen {
				delete(seen, k)
			}
			row := e.views[p*cfg.ViewSize : (p+1)*cfg.ViewSize]
			for i := 0; i < cfg.ViewSize; {
				t := int32(e.rng.IntnBound(&e.group))
				if int(t) == p || seen[t] {
					continue
				}
				seen[t] = true
				row[i] = t
				i++
			}
		}
	}
	return e, nil
}

// N returns the configured group size.
func (e *Engine) N() int { return e.cfg.N }

// Period returns the number of completed protocol periods.
func (e *Engine) Period() int { return e.period }

// Alive returns the number of non-crashed processes.
func (e *Engine) Alive() int { return e.alive }

// Count returns the number of alive processes in the given state.
func (e *Engine) Count(s ode.Var) int {
	i, ok := e.stateIdx[s]
	if !ok {
		return 0
	}
	return e.counts[i]
}

// Counts returns the alive count of every state.
func (e *Engine) Counts() map[ode.Var]int {
	out := make(map[ode.Var]int, len(e.states))
	for i, s := range e.states {
		out[s] = e.counts[i]
	}
	return out
}

// Fractions returns state occupancy as fractions of alive processes.
func (e *Engine) Fractions() map[ode.Var]float64 {
	out := make(map[ode.Var]float64, len(e.states))
	if e.alive == 0 {
		for _, s := range e.states {
			out[s] = 0
		}
		return out
	}
	for i, s := range e.states {
		out[s] = float64(e.counts[i]) / float64(e.alive)
	}
	return out
}

// StateOf returns the state of process p, or Down if it has crashed.
func (e *Engine) StateOf(p int) ode.Var {
	if e.state[p] < 0 {
		return Down
	}
	return e.states[e.state[p]]
}

// ProcessesIn returns the indices of alive processes currently in state s.
func (e *Engine) ProcessesIn(s ode.Var) []int {
	si, ok := e.stateIdx[s]
	if !ok {
		return nil
	}
	if e.counts[si] == 0 {
		return nil
	}
	out := make([]int, 0, e.counts[si])
	for p, st := range e.state {
		if int(st) == si {
			out = append(out, p)
		}
	}
	return out
}

// TransitionsLastPeriod returns the per-edge transition counts of the most
// recent period; edges without transitions are absent. The map is rebuilt
// from the engine's dense tally on every call and reused across calls;
// callers must not retain it.
func (e *Engine) TransitionsLastPeriod() map[[2]ode.Var]int {
	clear(e.transitions)
	n := len(e.states)
	for i, c := range e.tally {
		if c != 0 {
			e.transitions[[2]ode.Var{e.states[i/n], e.states[i%n]}] = c
		}
	}
	return e.transitions
}

// MessagesLastPeriod returns the number of connection attempts (sampling
// contacts, push contacts, and token hops) of the most recent period — the
// §3 message-complexity measure, observed.
func (e *Engine) MessagesLastPeriod() int { return e.messages }

// TokensLostLastPeriod returns tokens dropped in the most recent period
// (no process in the target state, or TTL expiry).
func (e *Engine) TokensLostLastPeriod() int { return e.tokensLost }

// Freeze pins process p in its current state: it executes no actions and
// cannot be moved by pushes or tokens, but remains alive and keeps
// answering contact probes. This models the paper's heterogeneous
// "chronically averse" hosts (§5.1: behaviour "characteristic of a
// heterogeneous setting, where half the hosts are chronically averse to
// storing the file or even perhaps to running the protocol").
func (e *Engine) Freeze(p int) { e.frozen[p] = true }

// Unfreeze releases a frozen process.
func (e *Engine) Unfreeze(p int) { e.frozen[p] = false }

// Frozen reports whether process p is frozen.
func (e *Engine) Frozen(p int) bool { return e.frozen[p] }

// Kill crash-stops process p. Killing an already-down process is a no-op.
func (e *Engine) Kill(p int) {
	if e.state[p] < 0 {
		return
	}
	e.counts[e.state[p]]--
	e.state[p] = -1
	e.alive--
}

// KillFraction crash-stops a uniformly random fraction of the alive
// processes (the paper's massive-failure experiments kill 50%). The target
// count is frac·alive rounded to nearest (killing 50% of 101 alive
// processes kills 51, where truncation would under-kill with 50) and the
// exact number killed is returned.
func (e *Engine) KillFraction(frac float64) int {
	target := int(math.Round(frac * float64(e.alive)))
	killed := 0
	// Reservoir-style: walk alive processes, kill with adjusted probability.
	remaining := e.alive
	for p := range e.state {
		if e.state[p] < 0 {
			continue
		}
		need := target - killed
		if need <= 0 {
			break
		}
		if e.rng.Intn(remaining) < need {
			e.Kill(p)
			killed++
		}
		remaining--
	}
	return killed
}

// Revive restarts a down process in the given state (crash-recovery or
// churn rejoin). Reviving an alive process is an error.
func (e *Engine) Revive(p int, s ode.Var) error {
	if e.state[p] >= 0 {
		return fmt.Errorf("sim: process %d is already alive", p)
	}
	si, ok := e.stateIdx[s]
	if !ok {
		return fmt.Errorf("sim: unknown state %q", s)
	}
	e.state[p] = int16(si)
	e.counts[si]++
	e.alive++
	return nil
}

// pickPeer draws a uniform contact target for self from rng: from the
// whole group under maximal membership, or from self's partial view when
// ViewSize is configured. The serial loop passes the engine's stream, a
// shard its own.
func (e *Engine) pickPeer(rng mt19937.Rand, self int) int {
	if e.views != nil {
		return int(e.views[self*e.cfg.ViewSize+rng.IntnBound(&e.view)])
	}
	t := rng.IntnBound(&e.peer)
	if t >= self {
		t++
	}
	return t
}

// sampleTarget picks a contact target other than self, counting the
// attempt in *messages. Crashed targets are legitimate picks (the
// connection is simply fruitless, as in the paper's massive-failure
// analysis). A message-loss coin may also void the attempt. It returns the
// observed state index, or -1 when nothing was observed.
func (e *Engine) sampleTarget(rng mt19937.Rand, messages *int, self int) int16 {
	_, observed := e.samplePeer(rng, messages, self)
	return observed
}

// samplePeer is like sampleTarget but also returns the peer index (used by
// Push, which mutates the peer).
func (e *Engine) samplePeer(rng mt19937.Rand, messages *int, self int) (int, int16) {
	*messages++
	t := e.pickPeer(rng, self)
	if e.cfg.MessageLoss > 0 && rng.Float64() < e.cfg.MessageLoss {
		return t, -1
	}
	return t, e.snapshot[t]
}

// transition moves process p from state index `from` to `to`, firing the
// hook.
func (e *Engine) transition(p int, from, to int16) {
	e.state[p] = to
	e.counts[from]--
	e.counts[to]++
	e.moved[p] = true
	e.tally[int(from)*len(e.states)+int(to)]++
	if e.cfg.OnTransition != nil {
		e.cfg.OnTransition(p, e.states[from], e.states[to], e.period)
	}
}

// deliverToken routes a token targeting state `from`; on success some
// process in that state transitions to `to`. All randomness is drawn from
// rng — the serial engine passes its main stream, the sharded barrier its
// dedicated barrier stream.
func (e *Engine) deliverToken(rng mt19937.Rand, from, to int16) {
	if e.cfg.TokenTTL > 0 {
		// Random-walk delivery: hop until a matching process is found or
		// the TTL expires. Each hop is a connection attempt.
		for ttl := e.cfg.TokenTTL; ttl > 0; ttl-- {
			e.messages++
			t := rng.IntnBound(&e.group)
			if e.cfg.MessageLoss > 0 && rng.Float64() < e.cfg.MessageLoss {
				continue
			}
			if e.state[t] == from && !e.moved[t] && !e.frozen[t] {
				e.transition(t, from, to)
				return
			}
		}
		e.tokensLost++
		return
	}
	// Directed delivery via membership: pick uniformly among current
	// holders of the state. §6 allows maintaining this knowledge through a
	// membership protocol; the engine models it as an oracle. The shuffled
	// candidate pool is built once per period per target state.
	e.messages++
	if !e.tokenBuilt[from] {
		pool := e.tokenPool[from][:0]
		for p, st := range e.state {
			if st == from && !e.moved[p] && !e.frozen[p] {
				pool = append(pool, p)
			}
		}
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		e.tokenPool[from] = pool
		e.tokenCursor[from] = 0
		e.tokenBuilt[from] = true
	}
	pool := e.tokenPool[from]
	for e.tokenCursor[from] < len(pool) {
		p := pool[e.tokenCursor[from]]
		e.tokenCursor[from]++
		// Re-check eligibility at consume time with exactly the conditions
		// the pool was built with: a process frozen after the pool was
		// built (e.g. by an OnTransition hook mid-period) must not be moved
		// by a token, just as a process that moved since cannot be.
		if e.state[p] == from && !e.moved[p] && !e.frozen[p] {
			e.transition(p, from, to)
			return
		}
	}
	e.tokensLost++
}

// Step executes one protocol period: every alive process runs the actions
// of its state, with all observations made against the period-start
// snapshot (transitions take effect for the next period, matching the
// analysis assumption that variables change continuously on period scale).
// A process transitions at most once per period; the first firing action
// wins.
//
// With Config.Shards > 1 the period runs on the sharded parallel path
// (stepSharded in shard.go); otherwise the original single-stream serial
// loop below runs, bit-identical to the pre-sharding engine.
func (e *Engine) Step() {
	if len(e.shards) > 1 {
		e.stepSharded()
		return
	}
	copy(e.snapshot, e.state)
	clear(e.tally)
	e.messages = 0
	e.tokensLost = 0
	for i := range e.tokenBuilt {
		e.tokenBuilt[i] = false
	}
	for p := range e.moved {
		e.moved[p] = false
	}

	for p := 0; p < e.cfg.N; p++ {
		si := e.snapshot[p]
		if si < 0 || e.frozen[p] {
			continue
		}
		for _, a := range e.actions[si] {
			if e.moved[p] && a.kind != core.Push && a.kind != core.Token {
				// Owner already transitioned this period; push/token
				// actions still run because they move other processes.
				continue
			}
			switch a.kind {
			case core.Flip:
				if e.rng.Float64() < a.coin {
					e.transition(p, si, a.to)
				}
			case core.Sample:
				ok := true
				for _, want := range a.samples {
					if e.sampleTarget(e.rng, &e.messages, p) != want {
						ok = false
						break
					}
				}
				if ok && e.rng.Float64() < a.coin {
					e.transition(p, si, a.to)
				}
			case core.SampleAny:
				// All len(samples) contacts are attempted, as in the
				// paper's action (iii); the process fires if any target
				// matches.
				hit := false
				for _, want := range a.samples {
					if e.sampleTarget(e.rng, &e.messages, p) == want {
						hit = true
					}
				}
				if hit && e.rng.Float64() < a.coin {
					e.transition(p, si, a.to)
				}
			case core.Push:
				for range a.samples {
					t, observed := e.samplePeer(e.rng, &e.messages, p)
					if observed == a.from && e.state[t] == a.from && !e.moved[t] && !e.frozen[t] {
						if a.coin >= 1 || e.rng.Float64() < a.coin {
							e.transition(t, a.from, a.to)
						}
					}
				}
			case core.Token:
				ok := true
				for _, want := range a.samples {
					if e.sampleTarget(e.rng, &e.messages, p) != want {
						ok = false
						break
					}
				}
				if ok && e.rng.Float64() < a.coin {
					e.deliverToken(e.rng, a.from, a.to)
				}
			}
		}
	}
	e.period++
}

// Run executes the given number of periods.
func (e *Engine) Run(periods int) {
	for i := 0; i < periods; i++ {
		e.Step()
	}
}

// Rand exposes the engine's random stream for experiment drivers that need
// auxiliary randomness (e.g. churn schedules) reproducible from the same
// seed. The *rand.Rand shares the generator the engine steps with, so its
// draws and the engine's interleave in call order on one stream, and the
// run stays a function of the seed and the call sequence.
func (e *Engine) Rand() *rand.Rand {
	if e.pub == nil {
		e.pub = rand.New(e.rng.Source())
	}
	return e.pub
}

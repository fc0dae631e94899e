package sim

import (
	"runtime"
	"sync"

	"odeproto/internal/core"
	"odeproto/internal/mt19937"
)

// Sharded execution (Config.Shards = K > 1).
//
// The N processes are partitioned into K contiguous shards. Each shard
// owns a Mersenne Twister stream derived from (Config.Seed, shard index)
// by mt19937.DeriveSeed, the splitmix64 finalizer job seeds use too, so
// the K streams are decorrelated and depend only on the configuration —
// never on scheduling. A period then runs in two phases:
//
//  1. Action phase, parallel across a worker pool: every shard walks its
//     own processes against the shared period-start snapshot. Observations
//     (sampling contacts) read the snapshot, which is immutable during the
//     phase, so any process may be observed. Mutations are confined to
//     shard-owned memory: a shard writes state/moved only for its own
//     index range and accumulates counts, transition tallies, and message
//     counters in shard-local buffers. Effects that would cross a shard
//     boundary — a Push landing on another shard's process, or a token
//     (whose candidate pool spans the whole group) — are recorded as
//     intents instead of applied.
//
//  2. Barrier, serial: shard accumulators merge in shard order, buffered
//     cross-shard pushes are re-checked against the live state and
//     applied, and token intents are delivered by the ordinary oracle
//     (or TTL random walk) using a dedicated barrier stream, again in
//     shard order. OnTransition hooks recorded during the action phase
//     replay here, so user hooks always run on one goroutine.
//
// Because phase 1 shards touch disjoint memory and phase 2 is a fixed
// serial order, the result for a given (Seed, Shards) is byte-identical at
// any ShardWorkers value — the same contract harness.Sweep gives jobs.
//
// K > 1 is a slightly different (equally valid) simulation of the same
// protocol than the serial engine, not a reordering of it: intra-shard
// pushes see in-period state as before, while cross-shard pushes draw
// their coin against the snapshot and are applied at the barrier, and all
// tokens resolve at the barrier. Mean-field drift is unchanged; pinned
// expectations must be regenerated per K.

// shardState is one shard's private execution state and accumulators.
type shardState struct {
	lo, hi int // owned process range [lo, hi)
	rng    mt19937.Rand

	countsDelta []int
	tally       []int // transitions from×to, laid out like Engine.tally
	messages    int
	tokensLost  int

	pushes []pushIntent
	tokens []tokenIntent
	hooks  []hookEvent // recorded only when Config.OnTransition != nil
}

// pushIntent is a Push that fired against a process of another shard; the
// coin has already been drawn, eligibility is re-checked at the barrier.
type pushIntent struct {
	target   int
	from, to int16
}

// tokenIntent is a token action that fired; delivery (which needs the
// group-wide candidate pool) happens at the barrier.
type tokenIntent struct {
	from, to int16
}

type hookEvent struct {
	proc     int
	from, to int16
}

// initShards builds the K shard states, their derived RNG streams, and
// the barrier stream (derived with index K, one past the last shard).
func (e *Engine) initShards() {
	k := e.cfg.Shards
	size := (e.cfg.N + k - 1) / k
	e.shards = make([]shardState, k)
	for s := 0; s < k; s++ {
		lo := s * size
		if lo > e.cfg.N {
			lo = e.cfg.N
		}
		hi := lo + size
		if hi > e.cfg.N {
			hi = e.cfg.N
		}
		e.shards[s] = shardState{
			lo:          lo,
			hi:          hi,
			rng:         mt19937.NewRand(mt19937.New(mt19937.DeriveSeed(e.cfg.Seed, s))),
			countsDelta: make([]int, len(e.states)),
			tally:       make([]int, len(e.tally)),
		}
	}
	e.barrierRng = mt19937.NewRand(mt19937.New(mt19937.DeriveSeed(e.cfg.Seed, k)))
	w := e.cfg.ShardWorkers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > k {
		w = k
	}
	e.shardWorkers = w
}

// stepSharded executes one protocol period on the sharded path.
func (e *Engine) stepSharded() {
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

	// Phase 1: the action phase fans the shards across the worker pool.
	// Shards are independent, so which worker runs which shard (and in
	// what order) cannot affect the outcome.
	if e.shardWorkers <= 1 {
		for s := range e.shards {
			e.runShard(&e.shards[s])
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		wg.Add(e.shardWorkers)
		for w := 0; w < e.shardWorkers; w++ {
			go func() {
				defer wg.Done()
				for s := range idx {
					e.runShard(&e.shards[s])
				}
			}()
		}
		for s := range e.shards {
			idx <- s
		}
		close(idx)
		wg.Wait()
	}

	// Phase 2, barrier: merge shard accumulators and replay hooks in
	// shard order.
	for s := range e.shards {
		sh := &e.shards[s]
		for i, d := range sh.countsDelta {
			e.counts[i] += d
			sh.countsDelta[i] = 0
		}
		for i, c := range sh.tally {
			e.tally[i] += c
			sh.tally[i] = 0
		}
		e.messages += sh.messages
		e.tokensLost += sh.tokensLost
		sh.messages, sh.tokensLost = 0, 0
		if e.cfg.OnTransition != nil {
			for _, h := range sh.hooks {
				e.cfg.OnTransition(h.proc, e.states[h.from], e.states[h.to], e.period)
			}
		}
		sh.hooks = sh.hooks[:0]
	}

	// Cross-shard pushes: the sender's coin already fired; the landing is
	// valid only if the target is still in the pushed-from state, unmoved,
	// and not frozen — the same conditions an intra-shard push checks.
	for s := range e.shards {
		sh := &e.shards[s]
		for _, pi := range sh.pushes {
			if e.state[pi.target] == pi.from && !e.moved[pi.target] && !e.frozen[pi.target] {
				e.transition(pi.target, pi.from, pi.to)
			}
		}
		sh.pushes = sh.pushes[:0]
	}

	// Tokens: delivered against the post-merge live state through the
	// ordinary delivery machinery, randomized by the barrier stream.
	for s := range e.shards {
		sh := &e.shards[s]
		for _, ti := range sh.tokens {
			e.deliverToken(e.barrierRng, ti.from, ti.to)
		}
		sh.tokens = sh.tokens[:0]
	}
	e.period++
}

// runShard executes the action phase for one shard. It may read the
// snapshot, views, frozen flags, and its own range of state/moved; it may
// write only its own range and its shard-local accumulators.
func (e *Engine) runShard(sh *shardState) {
	for p := sh.lo; p < sh.hi; p++ {
		si := e.snapshot[p]
		if si < 0 || e.frozen[p] {
			continue
		}
		for _, a := range e.actions[si] {
			if e.moved[p] && a.kind != core.Push && a.kind != core.Token {
				continue
			}
			switch a.kind {
			case core.Flip:
				if sh.rng.Float64() < a.coin {
					e.shardTransition(sh, p, si, a.to)
				}
			case core.Sample:
				ok := true
				for _, want := range a.samples {
					if e.sampleTarget(sh.rng, &sh.messages, p) != want {
						ok = false
						break
					}
				}
				if ok && sh.rng.Float64() < a.coin {
					e.shardTransition(sh, p, si, a.to)
				}
			case core.SampleAny:
				hit := false
				for _, want := range a.samples {
					if e.sampleTarget(sh.rng, &sh.messages, p) == want {
						hit = true
					}
				}
				if hit && sh.rng.Float64() < a.coin {
					e.shardTransition(sh, p, si, a.to)
				}
			case core.Push:
				for range a.samples {
					t, observed := e.samplePeer(sh.rng, &sh.messages, p)
					if observed != a.from || e.frozen[t] {
						continue
					}
					if sh.lo <= t && t < sh.hi {
						// Intra-shard: live checks are race-free, apply
						// immediately as the serial engine would.
						if e.state[t] == a.from && !e.moved[t] {
							if a.coin >= 1 || sh.rng.Float64() < a.coin {
								e.shardTransition(sh, t, a.from, a.to)
							}
						}
					} else {
						// Cross-shard: the target's live state belongs to
						// another shard, so the coin is drawn against the
						// snapshot observation (keeping this stream's
						// consumption shard-deterministic) and the landing
						// re-checked at the barrier.
						if a.coin >= 1 || sh.rng.Float64() < a.coin {
							sh.pushes = append(sh.pushes, pushIntent{target: t, from: a.from, to: a.to})
						}
					}
				}
			case core.Token:
				ok := true
				for _, want := range a.samples {
					if e.sampleTarget(sh.rng, &sh.messages, p) != want {
						ok = false
						break
					}
				}
				if ok && sh.rng.Float64() < a.coin {
					sh.tokens = append(sh.tokens, tokenIntent{from: a.from, to: a.to})
				}
			}
		}
	}
}

// shardTransition moves shard-owned process p between states, buffering
// the bookkeeping in the shard accumulators.
func (e *Engine) shardTransition(sh *shardState, p int, from, to int16) {
	e.state[p] = to
	sh.countsDelta[from]--
	sh.countsDelta[to]++
	e.moved[p] = true
	sh.tally[int(from)*len(e.states)+int(to)]++
	if e.cfg.OnTransition != nil {
		sh.hooks = append(sh.hooks, hookEvent{proc: p, from: from, to: to})
	}
}

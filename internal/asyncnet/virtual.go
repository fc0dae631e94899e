package asyncnet

import (
	"math/bits"
	"time"

	"odeproto/internal/mt19937"
	"odeproto/internal/ode"
)

// event is one scheduled occurrence on the virtual timeline. Events are
// totally ordered by (at, seq): seq is drawn at schedule time from a
// seeded splitmix stream, so ties in virtual time break pseudo-randomly
// but reproducibly — the virtual analogue of two wallclock events racing
// the goroutine scheduler.
//
// The struct is kept at 16 bytes, because the scheduler's cost at scale
// is the memory traffic of filing and sorting millions of these. A
// period firing (the dominant event kind — one per process per period)
// is fully described by its process id; a message delivery parks its
// payload in the scheduler's arena and carries only the slot index. ref
// encodes which: deliverBit set means an arena index, clear means a
// process id.
type event struct {
	at  int64  // virtual timestamp, nanoseconds
	seq uint32 // tie-break from the seeded splitmix stream
	ref uint32 // process id (period firing) or deliverBit|arena index
}

const deliverBit = 1 << 31

// parkedMsg is a delivery payload at rest in the arena: the envelope and
// its recipient.
type parkedMsg struct {
	m  message
	to int32
}

// virtualRunner is the discrete-event scheduler: a single loop popping the
// earliest event off a priority queue and feeding it to the owning
// process. One goroutine, no channels, no timers — the run is a pure
// function of the Config, and virtual time advances as fast as events can
// be processed.
//
// A scheduler is built once per group and reused by every run on it (a
// Runner's segments): run resets the processes, the calendar, the arena
// and both random streams in place, so a run costs O(events) rather than
// a fresh allocation of the whole group, and produces exactly what a
// newly built scheduler would.
//
// The queue is a calendar queue (Brown 1988): a ring of buckets, each one
// power-of-two-width slice of the timeline. Every scheduling horizon in
// the model is bounded — a period is at most BasePeriod·(1+Drift), a
// timeout BasePeriod/2, a delay at most MaxDelay — so an event lands at
// most a fixed number of buckets ahead, inserts are O(1) appends, and
// only the bucket containing `now` needs total order, which it gets by
// being sorted once on activation and consumed by index. The active
// bucket spans one bucket width of the timeline (tens to hundreds of
// events) and stays cache-resident, where a single global heap spanning
// all N processes' next periods thrashes: calendar + sorted activation
// measured ~2× faster than a specialized 4-ary heap at the 10k-process
// scale, and the gap widens with N. Events past the ring (possible only
// under exotic configs, e.g. MaxDelay ≫ BasePeriod) spill into an
// overflow heap and are re-filed as the ring advances.
//
// All randomness — network drop/delay draws and every process's protocol
// coins — comes from one shared Mersenne Twister stream. With a single
// event loop the draw order is exactly the deterministic event order, so
// per-process streams (which wallclock mode needs for goroutine safety)
// would buy nothing and cost a cold 2.5 KiB generator state per process.
type virtualRunner struct {
	cfg         *Config
	states      []ode.Var
	procs       []process
	periodsLeft []int32
	tally       []int // from×to transition counts of the whole group

	// Calendar queue state. curNum is the absolute bucket number of the
	// bucket being drained; cur is that bucket sorted ascending, consumed
	// from curIdx; late is a small min-heap of events scheduled into the
	// current bucket after its activation (a message sent with a delay
	// shorter than the remaining bucket width); ring buckets hold later
	// events unsorted; overflow holds events beyond the ring span.
	shift    uint // bucket width = 1<<shift nanoseconds
	curNum   int64
	cur      []event
	curIdx   int
	late     []event
	ring     [][]event // len is a power of two
	inRing   int
	overflow []event
	pending  int // events in cur[curIdx:] + late + ring + overflow

	// Delivery payload arena. Slots are recycled through freeMsg as their
	// events are consumed, so the arena's high-water mark is the maximum
	// number of in-flight messages, not the run's message total.
	msgs    []parkedMsg
	freeMsg []uint32
	scratch []event // reusable scatter buffer for sortBucket

	now      time.Duration
	rng      prng   // shared stream: network and all processes
	seqState uint64 // splitmix64 state for tie-break sequence numbers
	sent     int
}

const ringBuckets = 1024 // ring span = 1024 bucket widths ≥ 4× the horizon

// newVirtualRunner builds the group and its scheduler for a validated
// config. It sizes the calendar to the config's scheduling horizon:
// bucket width is the smallest power of two ≥ horizon/256, so every
// in-model event lands within ~512 buckets and the 1024-bucket ring never
// wraps onto live entries, while the active bucket stays small enough to
// live in cache.
func newVirtualRunner(cfg *Config, states []ode.Var, actions [][]*compiled) *virtualRunner {
	horizon := 2 * cfg.BasePeriod // ≥ BasePeriod·(1+Drift), Drift < 1
	if cfg.MaxDelay > horizon {
		horizon = cfg.MaxDelay
	}
	v := &virtualRunner{
		cfg:         cfg,
		states:      states,
		periodsLeft: make([]int32, cfg.N),
		tally:       make([]int, len(states)*len(states)),
		shift:       uint(bits.Len64(uint64(horizon) / 256)),
		ring:        make([][]event, ringBuckets),
		rng:         prng{new(mt19937.MT19937)}, // seeded by every run
	}
	v.procs = buildProcesses(cfg, v, func(int) prng { return v.rng }, func(int) []int { return v.tally }, actions)
	return v
}

// nextSeq advances the tie-break stream (the same splitmix64 finalizer as
// harness.DeriveSeed, truncated to 32 bits — a collision only matters for
// two events at the same virtual instant, where it still resolves to a
// fixed, reproducible order).
func (v *virtualRunner) nextSeq() uint32 {
	v.seqState += 0x9E3779B97F4A7C15
	z := v.seqState
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return uint32(z ^ (z >> 31))
}

// park files a delivery payload in the arena and returns its event ref.
func (v *virtualRunner) park(to int, m message) uint32 {
	if n := len(v.freeMsg); n > 0 {
		idx := v.freeMsg[n-1]
		v.freeMsg = v.freeMsg[:n-1]
		v.msgs[idx] = parkedMsg{m: m, to: int32(to)}
		return deliverBit | idx
	}
	v.msgs = append(v.msgs, parkedMsg{m: m, to: int32(to)})
	return deliverBit | uint32(len(v.msgs)-1)
}

// send applies the same loss/delay model as the wallclock network, but
// schedules the delivery as a virtual event instead of a real timer.
func (v *virtualRunner) send(to int, m message) {
	v.sent++
	dropped := v.cfg.DropProb > 0 && v.rng.Float64() < v.cfg.DropProb
	var delay time.Duration
	if v.cfg.MaxDelay > 0 {
		delay = time.Duration(v.rng.Int63n(int64(v.cfg.MaxDelay)))
	}
	if dropped {
		return
	}
	v.push(event{at: int64(v.now + delay), seq: v.nextSeq(), ref: v.park(to, m)})
}

// timeout schedules a lossless local timer event.
func (v *virtualRunner) timeout(owner int, d time.Duration, m message) {
	v.push(event{at: int64(v.now + d), seq: v.nextSeq(), ref: v.park(owner, m)})
}

// push files an event into the calendar. Events never lie in the past:
// every schedule call adds a non-negative offset to `now`.
func (v *virtualRunner) push(e event) {
	v.pending++
	switch b := e.at >> v.shift; {
	case b == v.curNum:
		heapPush(&v.late, e)
	case b-v.curNum < ringBuckets:
		v.ring[b&(ringBuckets-1)] = append(v.ring[b&(ringBuckets-1)], e)
		v.inRing++
	default:
		heapPush(&v.overflow, e)
	}
}

// pop removes the earliest event — the smaller of the sorted bucket's
// next entry and the late-arrival heap's top. Caller guarantees
// pending > 0.
func (v *virtualRunner) pop() event {
	for v.curIdx >= len(v.cur) && len(v.late) == 0 {
		v.advance()
	}
	v.pending--
	if len(v.late) > 0 && (v.curIdx >= len(v.cur) || eventLess(v.late[0], v.cur[v.curIdx])) {
		return heapPop(&v.late)
	}
	e := v.cur[v.curIdx]
	v.curIdx++
	return e
}

// advance moves the calendar to the next non-empty bucket and activates
// it: overflow entries now within the ring span are re-filed, and the
// bucket is sorted in place for index consumption. The slot keeps its
// backing array for its next lap — safe to alias, because an event for
// this slot's next lap is ringBuckets widths away, beyond any scheduling
// horizon, so nothing appends to it while the sorted view is live.
func (v *virtualRunner) advance() {
	if v.inRing == 0 {
		// Only the overflow holds events; jump straight to its earliest
		// bucket instead of walking empty ring slots.
		v.curNum = v.overflow[0].at >> v.shift
	} else {
		v.curNum++
	}
	for len(v.overflow) > 0 {
		b := v.overflow[0].at >> v.shift
		if b-v.curNum >= ringBuckets {
			break
		}
		e := heapPop(&v.overflow)
		if b == v.curNum {
			heapPush(&v.late, e)
		} else {
			v.ring[b&(ringBuckets-1)] = append(v.ring[b&(ringBuckets-1)], e)
			v.inRing++
		}
	}
	slot := &v.ring[v.curNum&(ringBuckets-1)]
	v.cur, v.curIdx = *slot, 0
	*slot = (*slot)[:0]
	v.inRing -= len(v.cur)
	v.sortBucket(v.cur)
}

// sortBucket orders an activated bucket ascending by (at, seq). For
// realistic buckets it is a two-pass distribution sort: a branchless
// counting-sort scatter on a 6-bit timestamp sub-key (64 sub-ranges of
// the bucket width) followed by an insertion pass that fixes the few
// within-sub-range inversions — comparison sorts pay a branch
// misprediction per compare on random timestamps, which dominated the
// activation cost when profiled. Degenerate buckets (a flood of events
// in one sub-range, e.g. MaxDelay of a few nanoseconds stacking every
// delivery on the same instant) fall back to quicksort, whose worst case
// does not quadratically depend on duplicate keys.
func (v *virtualRunner) sortBucket(s []event) {
	if len(s) < 16 {
		insertionSortEvents(s)
		return
	}
	sub := uint(0)
	if v.shift > 6 {
		sub = v.shift - 6
	}
	var cnt [65]int32
	for i := range s {
		cnt[((uint64(s[i].at)>>sub)&63)+1]++
	}
	limit := int32(len(s)/8 + 32)
	for i := 1; i < len(cnt); i++ {
		if cnt[i] > limit {
			sortEvents(s)
			return
		}
		cnt[i] += cnt[i-1]
	}
	if cap(v.scratch) < len(s) {
		v.scratch = make([]event, len(s))
	}
	scratch := v.scratch[:len(s)]
	for i := range s {
		k := (uint64(s[i].at) >> sub) & 63
		scratch[cnt[k]] = s[i]
		cnt[k]++
	}
	copy(s, scratch)
	insertionSortEvents(s)
}

// insertionSortEvents is exact and fast on the nearly-sorted output of
// the scatter pass (and on small buckets).
func insertionSortEvents(s []event) {
	for i := 1; i < len(s); i++ {
		e := s[i]
		j := i - 1
		for j >= 0 && eventLess(e, s[j]) {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = e
	}
}

// The late-arrival and overflow queues are 4-ary min-heaps ordered by
// (at, seq), specialized to the event struct: no container/heap interface
// indirection, hole percolation instead of swaps, and a fan-out that
// halves the levels touched per sift. Both stay small — late arrivals are
// only the sends whose delay lands inside the current bucket.
func heapPush(h *[]event, e event) {
	s := append(*h, event{})
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !eventLess(e, s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = e
	*h = s
}

func heapPop(h *[]event) event {
	s := *h
	top := s[0]
	n := len(s) - 1
	e := s[n]
	s = s[:n]
	if n > 0 {
		siftDown(s, 0, e)
	}
	*h = s
	return top
}

// sortEvents orders an activated bucket ascending by (at, seq): a
// median-of-three quicksort with an insertion-sort base case, specialized
// to the event struct so every comparison is the inlined eventLess
// (slices.SortFunc pays a closure call per comparison, which dominated
// the sort when profiled).
func sortEvents(s []event) {
	for len(s) > 12 {
		// Median-of-three pivot on (first, middle, last).
		m := len(s) / 2
		if eventLess(s[m], s[0]) {
			s[m], s[0] = s[0], s[m]
		}
		if eventLess(s[len(s)-1], s[m]) {
			s[len(s)-1], s[m] = s[m], s[len(s)-1]
			if eventLess(s[m], s[0]) {
				s[m], s[0] = s[0], s[m]
			}
		}
		pivot := s[m]
		i, j := 0, len(s)-1
		for i <= j {
			for eventLess(s[i], pivot) {
				i++
			}
			for eventLess(pivot, s[j]) {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		// Recurse into the smaller half, loop on the larger.
		if j < len(s)-i {
			sortEvents(s[:j+1])
			s = s[i:]
		} else {
			sortEvents(s[i:])
			s = s[:j+1]
		}
	}
	insertionSortEvents(s)
}

// siftDown percolates the hole at i downward until e fits there.
func siftDown(s []event, i int, e event) {
	n := len(s)
	for {
		least := 4*i + 1
		if least >= n {
			break
		}
		end := least + 4
		if end > n {
			end = n
		}
		for c := least + 1; c < end; c++ {
			if eventLess(s[c], s[least]) {
				least = c
			}
		}
		if !eventLess(s[least], e) {
			break
		}
		s[i] = s[least]
		i = least
	}
	s[i] = e
}

func eventLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// run drives the group through the given number of periods on the
// virtual timeline, starting from the given per-state population, and
// returns the run's summary. It first resets the scheduler in
// place, then seeds the calendar with every process's arbitrary
// first-period offset and drains events in (at, seq) order until the
// system is quiescent (the queue is empty). Quiescence is guaranteed:
// after a process's last period no new period events are scheduled,
// message cascades are finite (a query begets one reply, token forwards
// are TTL-bounded, converts are terminal), and every event carries a
// bounded delay. So at return no event, parked message or undecided
// instance is left over for the next run to see.
func (v *virtualRunner) run(seed int64, periods int, initial map[ode.Var]int) *Result {
	v.reset(seed, initial)
	for i := range v.procs {
		v.periodsLeft[i] = int32(periods)
		v.push(event{at: int64(v.procs[i].startOffset()), seq: v.nextSeq(), ref: uint32(i)})
	}

	for v.pending > 0 {
		ev := v.pop()
		v.now = time.Duration(ev.at)
		if ev.ref&deliverBit != 0 {
			idx := ev.ref &^ deliverBit
			pm := v.msgs[idx]
			v.freeMsg = append(v.freeMsg, idx)
			v.procs[pm.to].handle(pm.m)
			continue
		}
		p := &v.procs[ev.ref]
		p.startPeriod()
		if v.periodsLeft[ev.ref]--; v.periodsLeft[ev.ref] > 0 {
			v.push(event{at: int64(v.now + p.periodFor()), seq: v.nextSeq(), ref: ev.ref})
		}
	}
	return collectResult(v.states, v.procs, v.tally, v.sent)
}

// reset returns the scheduler to the state of a freshly built one with
// the given seed and population, keeping every buffer's capacity: the
// random streams are reseeded, the queues and the arena truncated (an
// empty arena and free list reproduce a fresh run's slot numbering), and
// the tally and processes cleared.
func (v *virtualRunner) reset(seed int64, initial map[ode.Var]int) {
	v.rng.mt.Seed(seed)
	v.seqState = uint64(seed) ^ 0x6A09E667F3BCC908 // sqrt(2) salt: distinct from the MT stream
	v.curNum, v.cur, v.curIdx = 0, nil, 0
	v.late, v.overflow = v.late[:0], v.overflow[:0]
	for i := range v.ring {
		v.ring[i] = v.ring[i][:0]
	}
	v.inRing, v.pending = 0, 0
	v.msgs, v.freeMsg = v.msgs[:0], v.freeMsg[:0]
	v.now, v.sent = 0, 0
	clear(v.tally)
	layOut(v.procs, v.states, initial)
}

package asyncnet

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"odeproto/internal/core"
	"odeproto/internal/endemic"
	"odeproto/internal/mt19937"
	"odeproto/internal/ode"
)

// endemicConfig is a virtual-mode run with every message kind in flight
// (samples, pushes, and the timeout path) and loss/drift/delay all on.
func endemicConfig(t *testing.T) Config {
	t.Helper()
	proto, err := endemic.NewFigure1Protocol(endemic.Params{B: 2, Gamma: 0.2, Alpha: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		N:        300,
		Protocol: proto,
		Initial:  map[ode.Var]int{endemic.Receptive: 200, endemic.Stash: 80, endemic.Averse: 20},
		Seed:     41,
		Periods:  60,
		Drift:    0.2,
		DropProb: 0.05,
	}
}

// TestVirtualDeterministicAcrossRuns: a fixed seed reproduces the exact
// Result — counts, every transition edge, and the message total — across
// repeated executions. This is the contract that makes virtual asyncnet
// jobs content-addressable in internal/service.
func TestVirtualDeterministicAcrossRuns(t *testing.T) {
	cfg := endemicConfig(t)
	first, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.MessagesSent == 0 {
		t.Fatal("no messages sent; the determinism check would be vacuous")
	}
	for i := 0; i < 2; i++ {
		again, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d diverged:\nfirst: %+v\nagain: %+v", i+2, first, again)
		}
	}
}

// TestVirtualDeterministicAcrossGOMAXPROCS: the scheduler is a single
// event loop, so the runtime's parallelism must not leak into results.
func TestVirtualDeterministicAcrossGOMAXPROCS(t *testing.T) {
	cfg := endemicConfig(t)
	baseline, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		got, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(baseline, got) {
			t.Fatalf("GOMAXPROCS=%d diverged:\nbaseline: %+v\ngot:      %+v", procs, baseline, got)
		}
	}
}

// TestVirtualSeedAndModeSplitResults: different seeds give different
// executions, and the two modes are (unsurprisingly) different streams —
// guarding against a bug where the seed or mode is ignored.
func TestVirtualSeedAndModeSplitResults(t *testing.T) {
	cfg := endemicConfig(t)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Seed++
	b, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, b) {
		t.Fatal("seed change did not change the virtual execution")
	}
}

// TestVirtualMatchesWallclockLimiting: the virtual scheduler and the
// goroutine runtime are different interleavings of the same model, so
// they must agree on limiting behaviour (statistically, like the
// asyncnet-vs-synchronous integration tests). The epidemic protocol must
// converge on both substrates, and the endemic protocol must keep a live
// stash population on both.
func TestVirtualMatchesWallclockLimiting(t *testing.T) {
	epi := mustTranslate(t, "x' = -x*y\ny' = x*y", core.Options{})
	for _, mode := range []Mode{ModeVirtual, ModeWallclock} {
		res, err := Run(Config{
			N:          150,
			Protocol:   epi,
			Initial:    map[ode.Var]int{"x": 140, "y": 10},
			Seed:       1,
			Periods:    120,
			Mode:       mode,
			BasePeriod: 3 * time.Millisecond,
			Drift:      0.2,
			DropProb:   0.05,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Counts["x"] > 1 {
			t.Fatalf("mode %s: epidemic left %d susceptibles after 120 periods", mode, res.Counts["x"])
		}
	}

	endemicProto, err := endemic.NewFigure1Protocol(endemic.Params{B: 2, Gamma: 0.1, Alpha: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModeVirtual, ModeWallclock} {
		res, err := Run(Config{
			N:        200,
			Protocol: endemicProto,
			Initial:  map[ode.Var]int{endemic.Receptive: 150, endemic.Stash: 50, endemic.Averse: 0},
			Seed:     3,
			Periods:  80,
			Mode:     mode,
			Drift:    0.2,
			DropProb: 0.05,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Counts[endemic.Stash] == 0 {
			t.Fatalf("mode %s: all replicas lost: %v", mode, res.Counts)
		}
		if res.Transitions[[2]ode.Var{endemic.Receptive, endemic.Stash}] == 0 {
			t.Fatalf("mode %s: no file transfers happened", mode)
		}
	}
}

// TestVirtualOverflowDelays exercises the calendar queue's overflow path:
// a MaxDelay far beyond the ring span still delivers messages, conserves
// the population, and stays deterministic.
func TestVirtualOverflowDelays(t *testing.T) {
	proto := mustTranslate(t, "x' = -x*y\ny' = x*y", core.Options{})
	cfg := Config{
		N:          80,
		Protocol:   proto,
		Initial:    map[ode.Var]int{"x": 40, "y": 40},
		Seed:       7,
		Periods:    30,
		BasePeriod: time.Millisecond,
		// ~8000 bucket widths past the 1024-bucket ring: every delayed
		// delivery takes the overflow path.
		MaxDelay: 500 * time.Millisecond,
	}
	first, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range first.Counts {
		total += c
	}
	if total != 80 {
		t.Fatalf("population not conserved under overflow delays: %v", first.Counts)
	}
	if first.MessagesSent == 0 {
		t.Fatal("no messages sent")
	}
	again, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatal("overflow-path execution is not deterministic")
	}
}

// TestRunnerVirtualSegmentsDeterministic: the harness adapter re-seeds
// each segment from (base seed, segment index), so a fixed call sequence
// reproduces counts, transitions, and message totals exactly.
func TestRunnerVirtualSegmentsDeterministic(t *testing.T) {
	proto := mustTranslate(t, "x' = -x*y\ny' = x*y", core.Options{})
	mk := func() *Runner {
		r, err := NewRunner(Config{
			N: 120, Protocol: proto,
			Initial: map[ode.Var]int{"x": 100, "y": 20},
			Seed:    13,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := mk(), mk()
	for _, r := range []*Runner{a, b} {
		r.Run(5)
		r.Run(3)
		r.Step()
		if err := r.Err(); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(a.Counts(), b.Counts()) {
		t.Fatalf("segmented counts diverged: %v vs %v", a.Counts(), b.Counts())
	}
	if a.MessagesSent() != b.MessagesSent() {
		t.Fatalf("segmented message totals diverged: %d vs %d", a.MessagesSent(), b.MessagesSent())
	}
	if !reflect.DeepEqual(a.TransitionsTotal(), b.TransitionsTotal()) {
		t.Fatal("segmented transition totals diverged")
	}
}

// TestQueryRoutesDoNotLeak: an instance whose replies were lost to the
// network must still be decided (by its timeout) and dropped, or a long
// lossy run grows every process's bookkeeping without bound. Replies are
// routed through the undecided instances themselves, so an empty pending
// list means no routing state is left either; the scheduler's arena must
// also have recycled every parked message.
func TestQueryRoutesDoNotLeak(t *testing.T) {
	proto := mustTranslate(t, "x' = -x*y\ny' = x*y", core.Options{})
	cfg := Config{
		N:        60,
		Protocol: proto,
		Initial:  map[ode.Var]int{"x": 50, "y": 10},
		Seed:     21,
		Periods:  40,
		DropProb: 0.5, // half of all queries/replies die in transit
	}
	states, actions, err := (&cfg).validate()
	if err != nil {
		t.Fatal(err)
	}
	v := newVirtualRunner(&cfg, states, actions)
	if res := v.run(cfg.Seed, cfg.Periods, cfg.Initial); res.MessagesSent == 0 {
		t.Fatal("no messages sent; leak check would be vacuous")
	}
	for i := range v.procs {
		if n := len(v.procs[i].pending); n != 0 {
			t.Fatalf("process %d finished the run with %d undecided instances", i, n)
		}
	}
	if v.pending != 0 || len(v.freeMsg) != len(v.msgs) {
		t.Fatalf("scheduler not quiescent: %d events queued, %d of %d arena slots free",
			v.pending, len(v.freeMsg), len(v.msgs))
	}
}

// recordingTransport captures what a process sends, so a test can deliver
// the messages itself in any order.
type recordingTransport struct{ sent, timeouts []message }

func (r *recordingTransport) send(_ int, m message) { r.sent = append(r.sent, m) }

func (r *recordingTransport) timeout(_ int, _ time.Duration, m message) {
	r.timeouts = append(r.timeouts, m)
}

// TestLateReplyIgnored: a reply arriving after its instance was decided by
// timeout is dropped — no second evaluation, no transition — while the
// same reply arriving in time converts the process (so the check is not
// vacuous), and a timeout after a reply-decided instance is a no-op.
func TestLateReplyIgnored(t *testing.T) {
	proto := mustTranslate(t, "x' = -x*y\ny' = x*y", core.Options{})
	cfg := Config{N: 2, Protocol: proto, Initial: map[ode.Var]int{"x": 1, "y": 1}}
	states, actions, err := (&cfg).validate()
	if err != nil {
		t.Fatal(err)
	}
	tr := &recordingTransport{}
	tally := make([]int, len(states)*len(states))
	procs := buildProcesses(&cfg, tr, func(int) prng { return prng{mt19937.New(1)} },
		func(int) []int { return tally }, actions)
	layOut(procs, states, cfg.Initial)
	p := &procs[0]       // in x: samples one peer, converts to y on a y reply
	const xToY = 0*2 + 1 // tally cell: row x (state 0), column y (state 1)
	reply := func(q message) message {
		return message{kind: msgReply, from: 1, seq: q.seq, state: 1}
	}

	// Timeout first: the instance is decided with its sample missing.
	p.startPeriod()
	if len(tr.sent) != 1 || len(tr.timeouts) != 1 {
		t.Fatalf("period sent %d queries and %d timeouts, want 1 and 1", len(tr.sent), len(tr.timeouts))
	}
	p.handle(tr.timeouts[0])
	p.handle(reply(tr.sent[0]))
	if p.state != 0 || len(p.pending) != 0 || tally[xToY] != 0 || len(tr.sent) != 1 {
		t.Fatalf("late reply acted: state %d, %d pending, tally %v, %d sends", p.state, len(p.pending), tally, len(tr.sent))
	}

	// Reply first: the instance converts the process; its timeout is then
	// a no-op.
	p.startPeriod()
	p.handle(reply(tr.sent[1]))
	p.handle(tr.timeouts[1])
	if p.state != 1 || len(p.pending) != 0 || tally[xToY] != 1 {
		t.Fatalf("in-time reply: state %d, %d pending, tally %v; want state 1, none pending, one x→y", p.state, len(p.pending), tally)
	}
}

// TestModeValidation: unknown modes are rejected by both entry points,
// and the empty mode normalizes to virtual.
func TestModeValidation(t *testing.T) {
	proto := mustTranslate(t, "x' = -x*y\ny' = x*y", core.Options{})
	cfg := Config{N: 10, Protocol: proto, Periods: 1, Initial: map[ode.Var]int{"x": 10}, Mode: "hybrid"}
	if _, err := Run(cfg); err == nil {
		t.Fatal("Run accepted an unknown mode")
	}
	if _, err := NewRunner(cfg); err == nil {
		t.Fatal("NewRunner accepted an unknown mode")
	}
	m, err := Mode("").Normalize()
	if err != nil || m != ModeVirtual {
		t.Fatalf("empty mode normalized to (%q, %v), want virtual", m, err)
	}
}

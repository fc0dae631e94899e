package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"odeproto/internal/asyncnet"
	"odeproto/internal/core"
	"odeproto/internal/harness"
	"odeproto/internal/mt19937"
	"odeproto/internal/ode"
	"odeproto/internal/rewrite"
	"odeproto/internal/service"
	"odeproto/internal/sim"
	"odeproto/internal/solver"
	"odeproto/internal/store"
)

// compiledSys is the output of the service's compile pipeline, rebuilt
// through direct library calls.
type compiledSys struct {
	input *ode.System
	proto *core.Protocol
}

// compileTimes are the per-stage durations of one direct compile.
type compileTimes struct{ parse, rewrite, translate time.Duration }

// compileDirect runs ode.Parse → rewrite.MakeMappable (only when the
// system is not already mappable, as the service does) → core.Translate.
func compileDirect(tr *tracer, spec *service.JobSpec, req string, parent int) (*compiledSys, compileTimes, error) {
	var ct compileTimes
	sp := tr.begin("ode.Parse", parent, req)
	t0 := time.Now()
	sys, err := ode.Parse(spec.Source, spec.Params)
	ct.parse = time.Since(t0)
	sp.end()
	if err != nil {
		return nil, ct, err
	}
	final := sys
	if !sys.Classify().Mappable() {
		slack := spec.Slack
		if slack == "" {
			slack = "z"
		}
		sp = tr.begin("rewrite.MakeMappable", parent, req)
		t0 = time.Now()
		final, err = rewrite.MakeMappable(sys, ode.Var(slack))
		ct.rewrite = time.Since(t0)
		sp.end()
		if err != nil {
			return nil, ct, err
		}
	}
	sp = tr.begin("core.Translate", parent, req)
	t0 = time.Now()
	proto, err := core.Translate(final, core.Options{P: spec.P, FailureRate: spec.FailureRate})
	ct.translate = time.Since(t0)
	sp.end()
	if err != nil {
		return nil, ct, err
	}
	return &compiledSys{input: sys, proto: proto}, ct, nil
}

// normalized applies the service's spec defaults that change execution.
func normalized(spec service.JobSpec) service.JobSpec {
	if spec.Seed == 0 {
		spec.Seed = 1
	}
	spec.Seeds = max(spec.Seeds, 1)
	spec.RecordEvery = max(spec.RecordEvery, 1)
	if spec.Engine == "" || spec.Engine == service.EngineSharded {
		spec.Engine = service.EngineAgent
	}
	if spec.Engine == service.EngineAgent {
		spec.Shards = max(spec.Shards, 1)
	}
	return spec
}

// initialCounts resolves the spec's initial populations the way the
// service does: explicit counts, or a uniform split with the remainder on
// the first state.
func initialCounts(spec *service.JobSpec, states []ode.Var) map[ode.Var]int {
	counts := make(map[ode.Var]int, len(states))
	if len(spec.Initial) == 0 {
		per := spec.N / len(states)
		for i, s := range states {
			counts[s] = per
			if i == 0 {
				counts[s] += spec.N - per*len(states)
			}
		}
		return counts
	}
	for k, v := range spec.Initial {
		counts[ode.Var(k)] = v
	}
	return counts
}

// engineStats are the counts the engines expose, summed over a replay.
type engineStats struct {
	pp          int64 // process-periods
	periods     int64 // periods summed over runs
	busy        time.Duration
	runTimes    []time.Duration
	wall        time.Duration
	workers     int
	messages    int64
	transitions int64
	tokensLost  int64
}

// replay re-runs a job through harness.Sweep with the service's engine
// configuration, seed rule and recording rule, and returns the result the
// service would have produced.
func replay(spec service.JobSpec, cs *compiledSys, tr *tracer, req string, parent int) (*service.JobResult, engineStats, error) {
	spec = normalized(spec)
	states := cs.proto.States
	counts := initialCounts(&spec, states)
	events := make([]harness.Event, len(spec.Events))
	for i, e := range spec.Events {
		if e.Kind != "kill-fraction" {
			return nil, engineStats{}, fmt.Errorf("replay supports kill-fraction events only, got %q", e.Kind)
		}
		events[i] = harness.Event{At: e.At, P: harness.Perturbation{Kind: harness.KillFraction, Frac: e.Frac}}
	}
	st := engineStats{workers: runtime.GOMAXPROCS(0)}
	runs := make([]service.RunResult, spec.Seeds)
	jobs := make([]harness.Job, spec.Seeds)
	msgs := make([]int64, spec.Seeds)
	trans := make([]int64, spec.Seeds)
	lost := make([]int64, spec.Seeds)
	asyncRunners := make([]*asyncnet.Runner, spec.Seeds)
	for i := range jobs {
		seed := spec.Seed
		if spec.Seeds > 1 {
			seed = harness.DeriveSeed(spec.Seed, i)
		}
		runs[i].Seed = seed
		var newRunner func(int64) (harness.Runner, error)
		switch spec.Engine {
		case service.EngineAgent:
			cfg := sim.Config{N: spec.N, Protocol: cs.proto, Initial: counts, Shards: spec.Shards}
			newRunner = func(s int64) (harness.Runner, error) {
				cfg.Seed = s
				return harness.NewAgent(cfg)
			}
		case service.EngineAggregate:
			newRunner = func(s int64) (harness.Runner, error) {
				return harness.NewAggregate(cs.proto, counts, s, 0)
			}
		case service.EngineAsyncnet:
			cfg := asyncnet.Config{N: spec.N, Protocol: cs.proto, Initial: counts}
			newRunner = func(s int64) (harness.Runner, error) {
				cfg.Seed = s
				r, err := asyncnet.NewRunner(cfg)
				asyncRunners[i] = r
				return r, err
			}
		default:
			return nil, st, fmt.Errorf("unknown engine %q", spec.Engine)
		}
		run := &runs[i]
		jobs[i] = harness.Job{
			Name: fmt.Sprintf("replay-%d", i), Seed: seed, New: newRunner,
			Periods: spec.Periods, Events: events,
			AfterStep: func(r harness.Runner, t int) {
				if ar, ok := r.(*harness.AgentRunner); ok {
					msgs[i] += int64(ar.MessagesLastPeriod())
					lost[i] += int64(ar.TokensLostLastPeriod())
					for _, v := range ar.TransitionsLastPeriod() {
						trans[i] += int64(v)
					}
				}
				if t%spec.RecordEvery == 0 || t == spec.Periods-1 {
					row := service.PeriodRow{Period: t, Counts: make([]int, len(states))}
					for si, s := range states {
						row.Counts[si] = r.Count(s)
					}
					run.Rows = append(run.Rows, row)
				}
			},
		}
	}
	var mu sync.Mutex
	sp := tr.begin("harness.Sweep", parent, req)
	t0 := time.Now()
	results, err := harness.Sweep(jobs, harness.Options{
		Workers: st.workers,
		Now:     time.Now,
		OnJobDone: func(i int, _ harness.Result, start, end time.Time) {
			mu.Lock()
			st.busy += end.Sub(start)
			st.runTimes = append(st.runTimes, end.Sub(start))
			mu.Unlock()
		},
	})
	st.wall = time.Since(t0)
	sp.end()
	if err != nil {
		return nil, st, err
	}
	res := &service.JobResult{States: make([]string, len(states)), Runs: runs}
	for i, s := range states {
		res.States[i] = string(s)
	}
	for i := range results {
		runs[i].Killed = results[i].Killed
		st.messages += msgs[i] + asyncMessages(asyncRunners[i])
		st.transitions += trans[i] + asyncTransitions(asyncRunners[i])
		st.tokensLost += lost[i]
	}
	st.periods = int64(spec.Periods) * int64(spec.Seeds)
	st.pp = int64(spec.N) * st.periods
	return res, st, nil
}

func asyncMessages(r *asyncnet.Runner) int64 {
	if r == nil {
		return 0
	}
	return int64(r.MessagesSent())
}

func asyncTransitions(r *asyncnet.Runner) int64 {
	if r == nil {
		return 0
	}
	n := int64(0)
	for _, v := range r.TransitionsTotal() {
		n += int64(v)
	}
	return n
}

// encodeResult is the service's one encode of a finished result.
func encodeResult(res *service.JobResult, tr *tracer, req string, parent int) ([]byte, time.Duration, error) {
	sp := tr.begin("service.encode_result", parent, req)
	t0 := time.Now()
	data, err := json.Marshal(res)
	took := time.Since(t0)
	sp.end()
	return data, took, err
}

// odeBandSigmas scales the band the final fractions must stay within:
// |fraction − ODE| ≤ odeBandSigmas/√alive for every state. Measured
// deviations of the endemic jobs stay below 1.5/√N.
const odeBandSigmas = 5

// checkODEBand solves the job's source system with internal/solver and
// checks every run's final fractions against it. One protocol period
// advances ODE time by the protocol's p, and the final row is recorded
// after the Step of period Periods−1, so it sits at t = Periods·p.
func checkODEBand(spec *service.JobSpec, cs *compiledSys, final [][]int) error {
	vars := cs.input.Vars()
	states := cs.proto.States
	if len(vars) != len(states) {
		return fmt.Errorf("ODE check needs a system compiled without rewriting")
	}
	col := make(map[ode.Var]int, len(states))
	for j, s := range states {
		col[s] = j
	}
	x0 := make([]float64, len(vars))
	for i, v := range vars {
		x0[i] = float64(spec.Initial[string(v)]) / float64(spec.N)
	}
	p := cs.proto.P
	tr, err := solver.RK4(solver.FromSystem(cs.input), x0, 0, float64(spec.Periods)*p, p/20)
	if err != nil {
		return err
	}
	want := tr.Final()
	for run, counts := range final {
		alive := 0
		for _, c := range counts {
			alive += c
		}
		if alive == 0 || len(counts) != len(states) {
			return fmt.Errorf("run %d has no final row", run)
		}
		band := odeBandSigmas / math.Sqrt(float64(alive))
		for i, v := range vars {
			got := float64(counts[col[v]]) / float64(alive)
			if d := math.Abs(got - want[i]); d > band {
				return fmt.Errorf("run %d state %s: fraction %.4f vs ODE %.4f, outside ±%.4f", run, v, got, want[i], band)
			}
		}
	}
	return nil
}

// mtDraws times raw MT19937 draws.
func mtDraws(tr *tracer, n int) float64 {
	m := mt19937.New(1)
	sp := tr.begin("mt19937.Uint64", 0, "mt19937")
	t0 := time.Now()
	var acc uint64
	for i := 0; i < n; i++ {
		acc ^= m.Uint64()
	}
	took := time.Since(t0)
	sp.end()
	mtSink = acc
	return float64(took.Nanoseconds()) / float64(n)
}

var mtSink uint64

// storeProbe drives a scratch FileStore the way the service does: three
// journal records and one result blob per job, then a reopen that replays
// the WAL. It returns append and put latencies and the recovery time.
func storeProbe(dir string, blobs [][]byte, jobs int, tr *tracer) (appends, puts []float64, recovery time.Duration, err error) {
	fs, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, nil, 0, err
	}
	spec := []byte(`{"source":"x' = -x*y\ny' = x*y\n","n":1000,"periods":20}`)
	for j := 0; j < jobs; j++ {
		sum := sha256.Sum256([]byte(fmt.Sprintf("probe-%d", j)))
		key := hex.EncodeToString(sum[:])
		id := fmt.Sprintf("j%06d", j+1)
		now := time.Now().UnixNano()
		recs := []store.JobRecord{
			{Op: store.OpSubmitted, ID: id, Key: key, Spec: spec, SubmittedAt: now},
			{Op: store.OpRunning, ID: id, Key: key, StartedAt: now},
		}
		for _, rec := range recs {
			d, aerr := timedAppend(fs, rec, tr)
			if aerr != nil {
				_ = fs.Close()
				return nil, nil, 0, aerr
			}
			appends = append(appends, d)
		}
		sp := tr.begin("store.PutResult", 0, id)
		t0 := time.Now()
		perr := fs.PutResult(key, blobs[j%len(blobs)])
		puts = append(puts, float64(time.Since(t0))/float64(time.Microsecond))
		sp.end()
		if perr != nil {
			_ = fs.Close()
			return nil, nil, 0, perr
		}
		d, aerr := timedAppend(fs, store.JobRecord{Op: store.OpDone, ID: id, Key: key, FinishedAt: now}, tr)
		if aerr != nil {
			_ = fs.Close()
			return nil, nil, 0, aerr
		}
		appends = append(appends, d)
	}
	if err := fs.Close(); err != nil {
		return nil, nil, 0, err
	}
	recovery, err = timedOpen(dir, tr)
	return appends, puts, recovery, err
}

func timedAppend(fs *store.FileStore, rec store.JobRecord, tr *tracer) (float64, error) {
	sp := tr.begin("store.Append", 0, rec.ID)
	t0 := time.Now()
	err := fs.Append(rec)
	d := float64(time.Since(t0)) / float64(time.Microsecond)
	sp.end()
	return d, err
}

// timedOpen times store.Open (WAL replay) of dir and closes the store.
func timedOpen(dir string, tr *tracer) (time.Duration, error) {
	sp := tr.begin("store.Open", 0, "recover")
	t0 := time.Now()
	fs, err := store.Open(dir, store.Options{})
	took := time.Since(t0)
	sp.end()
	if err != nil {
		return 0, err
	}
	return took, fs.Close()
}

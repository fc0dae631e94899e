package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"odeproto/internal/harness"
	"odeproto/internal/service"
)

// system is one ODE source the generator submits.
type system struct {
	name   string
	source string
	params map[string]float64
}

// The paper's two case studies (§4.1 endemic with β=4, γ=1, α=0.01;
// §4.2 Lotka–Volterra majority) plus small systems that widen the set of
// sources small-jobs rotates over.
var (
	sysEndemic = system{"endemic", "x' = -b*x*y + a*z\ny' = b*x*y - g*y\nz' = g*y - a*z\n",
		map[string]float64{"b": 4, "g": 1, "a": 0.01}}
	sysLV       = system{"lv", "x' = 3*x - 3*x^2 - 6*x*y\ny' = 3*y - 3*y^2 - 6*x*y\n", nil}
	sysEpidemic = system{"epidemic", "x' = -x*y\ny' = x*y\n", nil}
	sysFlip     = system{"flip", "x' = -k*x + m*y\ny' = k*x - m*y\n", map[string]float64{"k": 0.3, "m": 0.1}}
	sysSIS      = system{"sis", "x' = -b*x*y + g*y\ny' = b*x*y - g*y\n", map[string]float64{"b": 2, "g": 0.5}}
	sysRPS      = system{"rps", "x' = x*y - x*z\ny' = y*z - x*y\nz' = x*z - y*z\n", nil}

	smallSystems = []system{sysEndemic, sysLV, sysEpidemic, sysFlip, sysSIS, sysRPS}
	// paramSystems are the sources whose parameters small-jobs refreshes
	// so that the compile memo misses.
	paramSystems = []system{sysEndemic, sysFlip, sysSIS}
)

// opKind is what one client operation does.
type opKind int

const (
	opJob  opKind = iota // POST a new job, drain its stream, GET its status
	opRead               // GET /v1/results/{key}
	opDup                // POST a spec whose result already exists
)

// readVariant selects the request headers of a result GET.
type readVariant int

const (
	readIdentity readVariant = iota
	readRevalidate
	readGzip
)

// op is one generated client operation. Everything the checks need is
// computed here from the spec, before the request is sent.
type op struct {
	kind    opKind
	node    int // index of the node the request goes to
	spec    service.JobSpec
	body    []byte // marshaled spec (opJob, opDup)
	keyRank int    // preloaded key index (opRead, opDup)
	variant readVariant
	class   string
	pp      int64 // process-periods simulated (0 for the aggregate engine)
	rows    int   // expected stream rows across all seeds
	odeBand bool  // final fractions are checked against the ODE
}

// expectedRows is the service's recording rule: every period t with
// t % every == 0, plus the final period.
func expectedRows(periods, every int) int {
	if every < 1 {
		every = 1
	}
	rows := (periods + every - 1) / every
	if (periods-1)%every != 0 {
		rows++
	}
	return rows
}

// newJobOp fills the derived fields of a job operation.
func newJobOp(kind opKind, class string, spec service.JobSpec) op {
	body, err := json.Marshal(spec)
	if err != nil {
		panic(fmt.Sprintf("marshal spec: %v", err)) // JobSpec is plain data
	}
	seeds := max(spec.Seeds, 1)
	o := op{kind: kind, spec: spec, body: body, class: class,
		rows: expectedRows(spec.Periods, spec.RecordEvery) * seeds}
	if spec.Engine != service.EngineAggregate {
		o.pp = int64(spec.N) * int64(spec.Periods) * int64(seeds)
	}
	return o
}

// generator produces one client's operations for a workload. The same
// (workload, seed, client) always yields the same sequence.
type generator struct {
	wl     string
	seed   int64
	client int
	rng    *rand.Rand
	i      int
	nodes  int
	zipf   *rand.Zipf
	cycle  []opKind
}

func newGenerator(wl string, seed int64, client, nodes, keys int) *generator {
	g := &generator{wl: wl, seed: seed, client: client, nodes: max(nodes, 1),
		rng: rand.New(rand.NewSource(harness.DeriveSeed(seed, 1000+client)))}
	if keys > 0 {
		g.zipf = rand.NewZipf(g.rng, zipfS, 1, uint64(keys-1))
	}
	return g
}

// zipfS is the Zipf exponent of durable-mix key popularity.
const zipfS = 1.1

// jobSeed gives every job of a run its own base seed, so no two
// generated specs share a cache key.
func (g *generator) jobSeed() int64 {
	return harness.DeriveSeed(g.seed, g.client<<24|g.i)
}

// next returns the client's next operation.
func (g *generator) next() op {
	defer func() { g.i++ }()
	switch g.wl {
	case "sweep":
		return g.sweepOp()
	case "small-jobs":
		return g.smallOp()
	case "durable-mix":
		return g.mixOp()
	}
	panic("unknown workload " + g.wl)
}

// sweepClasses is the fixed engine × system × perturbation mix of sweep,
// visited round-robin so every run has the same composition. LV on
// asyncnet is left out: its token walks cost ~5 µs per process-period,
// about a hundred agent steps, and one such job would outweigh the rest.
var sweepClasses = []struct {
	sys    system
	engine string
	kill   bool
}{
	{sysEndemic, "agent", false}, {sysEndemic, "agent", true},
	{sysEndemic, "sharded", false}, {sysEndemic, "sharded", true},
	{sysEndemic, "asyncnet", false},
	{sysLV, "agent", false}, {sysLV, "agent", true},
	{sysLV, "sharded", false}, {sysLV, "sharded", true},
}

const (
	sweepN        = 20000
	sweepLVN      = 14000 // LV steps cost ~1.4× endemic ones; equal job times keep the median off a gap
	sweepAsyncN   = 10000 // the virtual-time scheduler costs ~20× an agent step per process
	sweepPeriods  = 40
	sweepAsyncPer = 20 // asyncnet lags the ODE clock noticeably over fewer periods
	sweepEvery    = 10
)

func (g *generator) sweepOp() op {
	c := sweepClasses[(g.i+g.client*len(sweepClasses)/2)%len(sweepClasses)]
	n, periods := sweepN, sweepPeriods
	if c.sys.name == "lv" {
		n = sweepLVN
	}
	if c.engine == "asyncnet" {
		n, periods = sweepAsyncN, sweepAsyncPer
	}
	spec := service.JobSpec{Source: c.sys.source, Params: c.sys.params, Engine: c.engine,
		N: n, Periods: periods, Seed: g.jobSeed(), Seeds: 2, RecordEvery: sweepEvery}
	switch c.sys.name {
	case "endemic":
		y := n/10 + g.rng.Intn(n/50)
		spec.Initial = map[string]int{"x": n - y, "y": y}
	case "lv":
		x := n/2 + n/20 + g.rng.Intn(n/20)
		spec.Initial = map[string]int{"x": x, "y": n - x}
	}
	switch c.engine {
	case "agent":
		spec.Shards = 1
	case "sharded":
		spec.Shards = 4
	}
	class := c.sys.name + "/" + c.engine
	if c.kill {
		spec.Events = []service.EventSpec{{At: periods / 2, Kind: "kill-fraction", Frac: 0.5}}
		class += "/kill"
	}
	o := newJobOp(opJob, class, spec)
	o.odeBand = c.sys.name == "endemic"
	return o
}

// smallOp builds one tiny job: three in four on the agent engine with
// N ≤ 1000 and ≤ 20 periods, one in four on the aggregate engine at
// N = 10⁶ (whose cost does not depend on N). Every fourth job carries
// fresh parameter values, so its compile misses the memo.
func (g *generator) smallOp() op {
	i := g.i
	sys := smallSystems[i%len(smallSystems)]
	params := sys.params
	fresh := i%4 == 1
	if fresh {
		sys = paramSystems[(i/4)%len(paramSystems)]
		params = make(map[string]float64, len(sys.params))
		for _, k := range sortedKeys(sys.params) { // sorted: the draws must not follow map order
			params[k] = sys.params[k] * (0.8 + 0.4*g.rng.Float64())
		}
	}
	spec := service.JobSpec{Source: sys.source, Params: params, Seed: g.jobSeed()}
	class := sys.name
	if i%4 == 3 {
		spec.Engine, spec.N, spec.Periods = "aggregate", 1_000_000, 30
		class += "/aggregate"
	} else {
		spec.Engine, spec.N, spec.Periods = "agent", 200+g.rng.Intn(801), 5+g.rng.Intn(16)
		class += "/agent"
	}
	if fresh {
		class += "/fresh"
	}
	return newJobOp(opJob, class, spec)
}

// preloadSpec is the spec of durable-mix's working-set key k: a small
// agent job whose seed is a function of (run seed, k) only, so duplicate
// POSTs can regenerate it.
func preloadSpec(seed int64, k int) service.JobSpec {
	sys := smallSystems[k%len(smallSystems)]
	return service.JobSpec{Source: sys.source, Params: sys.params, Engine: "agent",
		N: 500, Periods: 20, Seed: harness.DeriveSeed(seed, 1<<30+k), RecordEvery: 5}
}

// mixCycle is durable-mix's fixed operation mix per ten operations: eight
// result reads, one duplicate POST, one new job. Each cycle is shuffled.
// Every POST waits on fsyncs (a new job on four, a duplicate on one), so
// the writes' share is kept small enough that the shared disk's stalls do
// not set the pace of the whole mix.
var mixCycle = []opKind{opRead, opRead, opRead, opRead, opRead, opRead, opRead, opRead, opDup, opJob}

func (g *generator) mixOp() op {
	if len(g.cycle) == 0 {
		g.cycle = append([]opKind(nil), mixCycle...)
		g.rng.Shuffle(len(g.cycle), func(i, j int) { g.cycle[i], g.cycle[j] = g.cycle[j], g.cycle[i] })
	}
	kind := g.cycle[0]
	g.cycle = g.cycle[1:]
	node := (g.i + g.client) % g.nodes
	var o op
	switch kind {
	case opRead:
		o = op{kind: opRead, keyRank: int(g.zipf.Uint64()), variant: readVariant(g.i % 3), class: "read"}
	case opDup:
		k := int(g.zipf.Uint64())
		o = newJobOp(opDup, "dup", preloadSpec(g.seed, k))
		o.keyRank = k
	default:
		sys := smallSystems[g.i%len(smallSystems)]
		spec := service.JobSpec{Source: sys.source, Params: sys.params, Engine: "agent",
			N: 1000, Periods: 20, Seed: g.jobSeed(), RecordEvery: 5}
		o = newJobOp(opJob, sys.name+"/agent", spec)
	}
	o.node = node
	return o
}

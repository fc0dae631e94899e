package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"odeproto/internal/service"
)

// workloadSpec is what differs between workloads.
type workloadSpec struct {
	nodes int
	// subWindows is how many parts the wall-clock metrics are measured
	// over: as many as keep about a hundred operations in each.
	subWindows int
	// jobTailQ and readTailQ are the tail percentiles reported as
	// *_tail_ms: the highest ones with at least ten samples beyond them at
	// this workload's job and read rates.
	jobTailQ, readTailQ float64
	// reads names what counts as a read on this workload.
	reads string
}

var workloads = map[string]workloadSpec{
	"sweep":       {nodes: 1, subWindows: 4, jobTailQ: 0.9, readTailQ: 0.9, reads: "the status GET that closes each job"},
	"small-jobs":  {nodes: 1, subWindows: 10, jobTailQ: 0.99, readTailQ: 0.99, reads: "the status GET that closes each job"},
	"durable-mix": {nodes: 3, subWindows: 10, jobTailQ: 0.9, readTailQ: 0.99, reads: "result GETs and cache-answered POSTs"},
}

// e2eMetrics are the end-to-end metrics an untraced run puts in its
// result line, the ones BENCHMARK.json bounds. Each must mean the same on
// every workload and hold steady on a shared 2-core machine; the rest
// (jobs_per_s, the latency tails, read latency, resident memory,
// error_rate) are printed above the result line. manifest.json gives the
// reason for each.
var e2eMetrics = []string{
	"setup_s", "ops_per_s", "sim_mpp_per_s", "job_latency_p50_ms", "daemon_cpu_ms_per_op",
}

// layerMetrics are the per-layer metrics every traced run reports.
var layerMetrics = []string{
	"mt19937.ns_per_draw",
	"sim.agent_ns_per_proc_period", "sim.sharded_ns_per_proc_period",
	"sim.messages_per_proc_period", "sim.transitions_per_message", "sim.tokens_lost_share",
	"sim.aggregate_us_per_period",
	"asyncnet.virtual_ns_per_message", "asyncnet.messages_per_proc_period",
	"harness.parallel_efficiency", "harness.run_ms_p50",
	"ode.parse_us", "rewrite.make_mappable_us", "core.translate_us", "input.distinct_compile_share",
	"service.submit_us_p50", "service.stream_ms_p50", "service.status_get_us_p50",
	"service.stage_compile_us", "service.stage_sweep_ms", "service.stage_persist_us", "service.stage_respond_us",
	"service.queue_wait_ms_p50", "service.result_encode_us",
	"service.cache_hit_ratio", "service.result_bytes_per_read", "service.disk_hit_ratio",
	"store.append_us_p50", "store.put_result_us_p50", "store.wal_syncs_per_op", "store.wal_records_per_op",
	"store.recover_s",
	"service.rss_p90_mib",
	"cluster.forwarded_share", "cluster.forward_ms_p50",
	"obs.scrape_ms",
	"bench.client_cpu_share", "bench.unattributed_share", "bench.tracing_overhead_pct",
}

const (
	setupRepeats = 9    // daemon starts per run; setup_s is their median
	restarts     = 9    // durable-mix restarts of the whole cluster; setup_s is their median
	preloadKeys  = 1200 // durable-mix working set: ~400 keys per node against a 256-result LRU
	// maxClientCPUShare bounds the generator's own CPU share of a window;
	// beyond it the benchmark measures its client, and the run fails.
	maxClientCPUShare = 0.5
	clients           = 2
)

// bench is one run of one workload.
type bench struct {
	root, out, dir, bin string
	wl                  string
	spec                workloadSpec
	seed                int64
	seconds             int
	traced              bool
	hc                  *http.Client

	daemons []*daemon
	bases   []string
	args    [][]string
	setup   []float64

	keys  []string // durable-mix working set, by Zipf rank
	blobs [][]byte
	gens  []*generator
	gzMu  sync.Mutex
	gz    map[int][]byte

	failures []string
}

func (b *bench) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(b.failures) < 20 {
		fmt.Fprintln(os.Stderr, "check failed:", msg)
	}
	b.failures = append(b.failures, msg)
}

func (b *bench) run() (*result, error) {
	b.out = filepath.Join(b.root, ".bench_build")
	b.dir = filepath.Join(b.out, "run-"+strconv.Itoa(os.Getpid()))
	if err := os.RemoveAll(b.dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.dir)
	bin, err := buildDaemon(b.root, b.out)
	if err != nil {
		return nil, err
	}
	b.bin = bin
	b.gz = make(map[int][]byte)
	printEnv()
	defer b.stopAll()

	if b.spec.nodes == 1 {
		err = b.setupSingle()
	} else {
		err = b.setupCluster()
	}
	if err != nil {
		return nil, err
	}
	for c := 0; c < clients; c++ {
		b.gens = append(b.gens, newGenerator(b.wl, b.seed, c, len(b.bases), len(b.keys)))
	}
	if err := b.warmup(); err != nil {
		return nil, err
	}

	plain, err := b.measure(nil)
	if err != nil {
		return nil, err
	}
	b.checkWindow(plain)
	rep := newReport()
	b.e2e(rep, plain)

	var traced *windowStats
	var tr *tracer
	if b.traced {
		tr = newTracer()
		if traced, err = b.measure(tr); err != nil {
			return nil, err
		}
		b.checkWindow(traced)
	}
	if b.spec.nodes > 1 {
		b.checkNodesAgree()
	}
	if b.traced {
		if err := b.layers(rep, plain, traced, tr); err != nil {
			return nil, err
		}
	}
	b.stopAll()
	if b.traced {
		if err := b.storeLayer(rep, tr); err != nil {
			return nil, err
		}
		if err := b.writeSpans(tr); err != nil {
			return nil, err
		}
	}

	attempted, failed := len(plain.outs), plain.failed()
	if traced != nil {
		attempted += len(traced.outs)
		failed += traced.failed()
	}
	checkFails := len(b.failures) - failed
	failed += max(checkFails, 0)
	attempted = max(attempted, failed, 1)
	rep.set("error_rate", "ratio", float64(failed)/float64(attempted),
		fmt.Sprintf("%d failed of %d attempted", failed, attempted))

	rep.print(fmt.Sprintf("workload %s seed %d: %d s window, %d clients, %d node(s)",
		b.wl, b.seed, b.seconds, clients, b.spec.nodes))
	names := e2eMetrics
	if b.traced {
		names = layerMetrics
	}
	metrics, err := rep.pick(names)
	if err != nil {
		return nil, err
	}
	correct := len(b.failures) == 0
	fmt.Printf("correctness: %s\n", map[bool]string{true: "pass", false: "FAIL"}[correct])
	return &result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}

// setupSingle starts one in-memory daemon setupRepeats times, keeping the
// last. setup_s is exec → /v1/healthz 200.
func (b *bench) setupSingle() error {
	for i := 0; i < setupRepeats; i++ {
		d, err := startDaemon(b.bin, []string{"-addr", "127.0.0.1:0"})
		if err != nil {
			return err
		}
		b.daemons = []*daemon{d}
		took, err := d.ready(b.hc, time.Minute)
		if err != nil {
			return err
		}
		b.setup = append(b.setup, took.Seconds())
		if i < setupRepeats-1 {
			if err := d.stop(); err != nil {
				return err
			}
		}
	}
	b.bases = []string{"http://" + b.daemons[0].addr}
	return nil
}

// setupCluster starts three durable clustered nodes, preloads a result
// working set larger than each node's LRU, and restarts the cluster
// `restarts` times. setup_s is exec → every node's /v1/healthz 200 after a
// restart, which covers WAL replay and cache warming.
func (b *bench) setupCluster() error {
	ports, err := freePorts(b.spec.nodes)
	if err != nil {
		return err
	}
	peers := strings.Join(ports, ",")
	for i, p := range ports {
		b.args = append(b.args, []string{"-addr", p, "-peers", peers,
			"-data", filepath.Join(b.dir, "node"+strconv.Itoa(i))})
		b.bases = append(b.bases, "http://"+p)
	}
	if _, err := b.startCluster(); err != nil {
		return err
	}
	t0 := time.Now()
	if err := b.preload(); err != nil {
		return err
	}
	fmt.Printf("preload: %d results in %.2f s\n", len(b.keys), time.Since(t0).Seconds())
	for r := 0; r < restarts; r++ {
		b.stopAll()
		took, err := b.startCluster()
		if err != nil {
			return err
		}
		b.setup = append(b.setup, took.Seconds())
	}
	return nil
}

// startCluster starts every node at once and returns the time until all
// of them answer /v1/healthz, then waits until every node believes every
// peer alive (not timed: a node probed while a peer was still replaying
// its WAL marks it down until the next probe).
func (b *bench) startCluster() (time.Duration, error) {
	b.daemons = b.daemons[:0]
	for _, a := range b.args {
		d, err := startDaemon(b.bin, a)
		if err != nil {
			return 0, err
		}
		b.daemons = append(b.daemons, d)
	}
	var slowest time.Duration
	for _, d := range b.daemons {
		took, err := d.ready(b.hc, time.Minute)
		if err != nil {
			return 0, err
		}
		slowest = max(slowest, took)
	}
	for _, d := range b.daemons {
		if err := d.peersUp(10 * time.Second); err != nil {
			return 0, err
		}
	}
	return slowest, nil
}

// preload submits the durable-mix working set from both clients and
// records each key's canonical result bytes.
func (b *bench) preload() error {
	b.keys = make([]string, preloadKeys)
	b.blobs = make([][]byte, preloadKeys)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := b.newClient(nil)
			for k := c; k < preloadKeys; k += clients {
				o := newJobOp(opJob, "preload", preloadSpec(b.seed, k))
				o.node = k % len(b.bases)
				out := cl.job(&o, "preload")
				if out.err != nil {
					errs[c] = fmt.Errorf("preload key %d: %w", k, out.err)
					return
				}
				code, body, _, err := cl.get(b.bases[o.node]+"/v1/results/"+out.key, nil)
				if err != nil || code != http.StatusOK {
					errs[c] = fmt.Errorf("preload key %d: fetching result: HTTP %d %v", k, code, err)
					return
				}
				b.keys[k], b.blobs[k] = out.key, body
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (b *bench) stopAll() {
	for _, d := range b.daemons {
		if err := d.stop(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
	}
}

func (b *bench) newClient(tr *tracer) *client {
	return &client{hc: b.hc, nodes: b.bases, tr: tr,
		keys: b.keys, blobs: b.blobs, gzipMu: &b.gzMu, gzipped: b.gz}
}

// warmup runs both clients briefly before any window, so lazy set-up
// (connection pools, the compile memo, page cache) is not timed. Its
// operations are checked like any other.
func (b *bench) warmup() error {
	outs, _, _ := b.drive(nil, time.Now().Add(time.Second))
	for _, o := range outs {
		if o.err != nil {
			return fmt.Errorf("warm-up: %w", o.err)
		}
	}
	return nil
}

// drive runs both closed-loop clients until the deadline; each finishes
// the operation in flight when it passes. It returns every outcome and
// the window's start and end.
func (b *bench) drive(tr *tracer, until time.Time) ([]outcome, time.Time, time.Time) {
	per := make([][]outcome, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := b.newClient(tr)
			g := b.gens[c]
			for time.Now().Before(until) {
				o := g.next()
				per[c] = append(per[c], cl.do(&o, "c"+strconv.Itoa(c)+"-"+strconv.Itoa(g.i)))
			}
		}(c)
	}
	wg.Wait()
	end := time.Now()
	var outs []outcome
	for _, p := range per {
		outs = append(outs, p...)
	}
	return outs, start, end
}

// windowStats is one measured window.
type windowStats struct {
	outs        []outcome
	parts       int // sub-windows
	start       time.Time
	wall        time.Duration
	daemonCPU   time.Duration
	clientCPU   time.Duration
	peakRSS     float64   // Σ VmHWM at the end of the window
	rss         []float64 // Σ VmRSS, sampled every rssEvery
	scr         window
	scrapeTimes []float64
}

// The wall-clock metrics are measured per sub-window and reported at the
// least-disturbed quartile of the sub-windows: the 75th percentile of the
// rates and the 25th of the median latencies. The machine is shared, and
// CPU steal and disk stalls from other tenants only ever slow a run, for
// seconds at a time; the quiet quartile moves with the program, not with
// them. Whole-window figures are printed beside them.
const quietQ = 0.25

// subWindow returns the index of the sub-window an operation completed in.
func (w *windowStats) subWindow(o outcome) int {
	i := int(o.at.Sub(w.start) * time.Duration(w.parts) / w.wall)
	return min(max(i, 0), w.parts-1)
}

// rate returns Σ weight(o) per second at the quiet quartile of the
// sub-windows.
func (w *windowStats) rate(weight func(outcome) float64) float64 {
	sums := make([]float64, w.parts)
	for _, o := range w.outs {
		sums[w.subWindow(o)] += weight(o)
	}
	part := w.wall.Seconds() / float64(w.parts)
	for i := range sums {
		sums[i] /= part
	}
	return percentile(sums, 1-quietQ)
}

// quietLatency returns the median latency (ms) of the selected operations
// at the quiet quartile of the sub-windows that have any.
func (w *windowStats) quietLatency(lat func(outcome) (float64, bool)) float64 {
	per := make([][]float64, w.parts)
	for _, o := range w.outs {
		if v, ok := lat(o); ok {
			i := w.subWindow(o)
			per[i] = append(per[i], v)
		}
	}
	var medians []float64
	for _, p := range per {
		if len(p) > 0 {
			medians = append(medians, median(p))
		}
	}
	return percentile(medians, quietQ)
}

func (w *windowStats) failed() int {
	n := 0
	for _, o := range w.outs {
		if o.err != nil {
			n++
		}
	}
	return n
}

// measure runs one window: scrape and read CPU counters, drive the
// clients, scrape again.
func (b *bench) measure(tr *tracer) (*windowStats, error) {
	w := &windowStats{parts: b.spec.subWindows}
	before, err := b.scrapeAll(tr, w)
	if err != nil {
		return nil, err
	}
	d0, c0, err := b.cpu()
	if err != nil {
		return nil, err
	}
	var start, end time.Time
	length := time.Duration(b.seconds) * time.Second
	if tr != nil {
		length /= 2 // the traced window feeds spans, not the e2e metrics
	}
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		w.rss = b.sampleRSS(stop)
	}()
	w.outs, start, end = b.drive(tr, time.Now().Add(length))
	close(stop)
	sampler.Wait()
	w.wall = end.Sub(start)
	w.start = start
	d1, c1, err := b.cpu()
	if err != nil {
		return nil, err
	}
	w.daemonCPU, w.clientCPU = d1-d0, c1-c0
	after, err := b.scrapeAll(tr, w)
	if err != nil {
		return nil, err
	}
	w.scr = window{before: before, after: after}
	for _, d := range b.daemons {
		hwm, err := procMemMiB(d.cmd.Process.Pid, "VmHWM")
		if err != nil {
			return nil, err
		}
		w.peakRSS += hwm
	}
	for _, o := range w.outs {
		if o.err != nil {
			b.fail("%v", o.err)
		}
	}
	return w, nil
}

// rssEvery is the resident-set sampling period.
const rssEvery = 250 * time.Millisecond

// sampleRSS records Σ VmRSS of the daemons every rssEvery until stop is
// closed. It reads /proc only; the daemons see no requests from it.
func (b *bench) sampleRSS(stop <-chan struct{}) []float64 {
	var out []float64
	t := time.NewTicker(rssEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return out
		case <-t.C:
			sum := 0.0
			for _, d := range b.daemons {
				v, err := procMemMiB(d.cmd.Process.Pid, "VmRSS")
				if err != nil {
					return out // the daemon exited; measure reports it
				}
				sum += v
			}
			out = append(out, sum)
		}
	}
}

func (b *bench) scrapeAll(tr *tracer, w *windowStats) ([]scrape, error) {
	out := make([]scrape, len(b.bases))
	for i, base := range b.bases {
		s, took, err := scrapeNode(b.hc, base, tr, b.spec.nodes > 1)
		if err != nil {
			return nil, err
		}
		out[i] = s
		w.scrapeTimes = append(w.scrapeTimes, ms(took))
	}
	return out, nil
}

// cpu returns the daemons' and the benchmark's own CPU time so far.
func (b *bench) cpu() (daemons, self time.Duration, err error) {
	for _, d := range b.daemons {
		t, err := procCPU(d.cmd.Process.Pid)
		if err != nil {
			return 0, 0, err
		}
		daemons += t
	}
	self, err = procCPU(os.Getpid())
	return daemons, self, err
}

// checkWindow runs the checks that need the whole window: the sweep count
// against the distinct specs submitted, and the ODE band.
func (b *bench) checkWindow(w *windowStats) {
	jobs := 0
	for _, o := range w.outs {
		if o.kind == opJob {
			jobs++
		}
	}
	if got := w.scr.delta("odeproto_sweeps_executed_total"); int(got) != jobs {
		b.fail("sweeps executed in the window: %v, want %d (one per distinct spec; cache-answered operations run none)", got, jobs)
	}
	memo := make(map[string]*compiledSys)
	for _, o := range w.outs {
		if o.err != nil || o.final == nil {
			continue
		}
		spec := &o.spec.spec
		cs, err := compileMemo(memo, spec)
		if err != nil {
			b.fail("compiling %s for the ODE check: %v", o.class, err)
			continue
		}
		if err := checkODEBand(spec, cs, o.final); err != nil {
			b.fail("job %s (%s) left the ODE band: %v", o.id, o.class, err)
		}
	}
}

// compileKey identifies a compile request (the service memoizes on the
// same fields).
func compileKey(spec *service.JobSpec) string {
	data, _ := json.Marshal(struct {
		S string
		P map[string]float64
		N float64
		F float64
	}{spec.Source, spec.Params, spec.P, spec.FailureRate})
	return string(data)
}

func compileMemo(memo map[string]*compiledSys, spec *service.JobSpec) (*compiledSys, error) {
	k := compileKey(spec)
	if cs, ok := memo[k]; ok {
		return cs, nil
	}
	cs, _, err := compileDirect(nil, spec, "", 0)
	if err == nil {
		memo[k] = cs
	}
	return cs, err
}

// checkNodesAgree fetches a seeded sample of working-set keys from every
// node and requires byte-identical results.
func (b *bench) checkNodesAgree() {
	cl := b.newClient(nil)
	for s := 0; s < 8; s++ {
		k := int(uint64(b.seed)*2654435761+uint64(s)*40503) % len(b.keys)
		for i, base := range b.bases {
			code, body, _, err := cl.get(base+"/v1/results/"+b.keys[k], nil)
			if err != nil || code != http.StatusOK || !bytes.Equal(body, b.blobs[k]) {
				b.fail("key %s from node %d: HTTP %d (%v), %d bytes, not byte-identical to the preloaded result", b.keys[k], i, code, err, len(body))
			}
		}
	}
}

// e2e computes the end-to-end metrics of an untraced window.
func (b *bench) e2e(rep *report, w *windowStats) {
	rep.set("setup_s", "s", median(b.setup), fmt.Sprintf("median of %d starts %s", len(b.setup), fmtList(b.setup)))
	var jobLat, readLat []float64
	var pp int64
	for _, o := range w.outs {
		switch o.kind {
		case opJob:
			jobLat = append(jobLat, ms(o.lat))
			pp += o.pp
			if b.spec.nodes == 1 {
				readLat = append(readLat, ms(o.readLat))
			}
		default:
			readLat = append(readLat, ms(o.lat))
		}
	}
	secs := w.wall.Seconds()
	ops := len(w.outs)
	all := func(outcome) float64 { return 1 }
	newJob := func(o outcome) float64 {
		if o.kind == opJob {
			return 1
		}
		return 0
	}
	rep.set("ops_per_s", "1/s", w.rate(all), fmt.Sprintf("quiet quartile of %d sub-windows; whole window %.1f (n=%d in %.2f s)",
		w.parts, float64(ops)/secs, ops, secs))
	rep.set("jobs_per_s", "1/s", w.rate(newJob), fmt.Sprintf("whole window %.1f (n=%d new jobs)", float64(len(jobLat))/secs, len(jobLat)))
	rep.set("sim_mpp_per_s", "Mpp/s", w.rate(func(o outcome) float64 { return float64(o.pp) / 1e6 }),
		fmt.Sprintf("whole window %.2f; N·periods·seeds of per-process engines", float64(pp)/1e6/secs))
	jq, rq := b.spec.jobTailQ, b.spec.readTailQ
	jobOnly := func(o outcome) (float64, bool) { return ms(o.lat), o.kind == opJob }
	rep.set("job_latency_p50_ms", "ms", w.quietLatency(jobOnly), fmt.Sprintf("quiet quartile of sub-window medians; whole window %.3f (n=%d) POST → stream drained → done",
		percentile(jobLat, 0.5), len(jobLat)))
	rep.set("job_latency_tail_ms", "ms", percentile(jobLat, jq), tailNote(jq, len(jobLat)))
	rep.set("read_latency_p50_ms", "ms", percentile(readLat, 0.5), fmt.Sprintf("n=%d %s", len(readLat), b.spec.reads))
	rep.set("read_latency_tail_ms", "ms", percentile(readLat, rq), tailNote(rq, len(readLat)))
	rep.set("daemon_cpu_ms_per_op", "ms", ms(w.daemonCPU)/float64(max(ops, 1)),
		fmt.Sprintf("%.0f ms daemon CPU over %d ops", ms(w.daemonCPU), ops))
	rep.set("service.rss_p90_mib", "MiB", percentile(w.rss, 0.9), fmt.Sprintf("p90 of %d samples of Σ VmRSS of %d daemon(s); grows with the unbounded job table",
		len(w.rss), len(b.daemons)))
	rep.set("daemon_peak_rss_mib", "MiB", w.peakRSS, "Σ VmHWM at the end of the window")
	// The tail under its percentile's own name (p90 or p99).
	rep.set("job_latency_"+quantileName(jq)+"_ms", "ms", percentile(jobLat, jq), "same as job_latency_tail_ms")
	if b.spec.nodes > 1 {
		rep.set("read_latency_"+quantileName(rq)+"_ms", "ms", percentile(readLat, rq), "same as read_latency_tail_ms")
	}
	printClasses(w)
	printTimeline(w)
	share := clientShare(w)
	rep.set("bench.client_cpu_share", "ratio", share, fmt.Sprintf("bound %.2f", maxClientCPUShare))
	if share > maxClientCPUShare {
		b.fail("the client used %.0f%% of the window's CPU, over the %.0f%% bound", share*100, maxClientCPUShare*100)
	}
}

// printClasses prints the median latency of each operation class.
func printClasses(w *windowStats) {
	byClass := make(map[string][]float64)
	for _, o := range w.outs {
		byClass[o.class] = append(byClass[o.class], ms(o.lat))
	}
	fmt.Println("per class (median latency, count):")
	for _, c := range sortedKeys(byClass) {
		fmt.Printf("  %-28s %10.3f ms  n=%d\n", c, median(byClass[c]), len(byClass[c]))
	}
}

// printTimeline prints the operations completed in each second of the
// window, which shows whether a slow run was slow throughout.
func printTimeline(w *windowStats) {
	per := make([]int, int(w.wall.Seconds())+1)
	for _, o := range w.outs {
		if i := int(o.at.Sub(w.start).Seconds()); i >= 0 && i < len(per) {
			per[i]++
		}
	}
	fmt.Printf("ops per second: %v\n", per)
}

func clientShare(w *windowStats) float64 {
	total := w.clientCPU + w.daemonCPU
	if total == 0 {
		return 0
	}
	return float64(w.clientCPU) / float64(total)
}

func tailNote(q float64, n int) string {
	note := fmt.Sprintf("%s of n=%d", quantileName(q), n)
	if best := tailQuantile(n); best < q {
		note += fmt.Sprintf(" (WARNING: fewer than 10 samples beyond it; highest valid is %s)", quantileName(best))
	}
	return note
}

func fmtList(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// writeSpans writes the traced window's spans as JSON lines.
func (b *bench) writeSpans(tr *tracer) error {
	path := filepath.Join(b.out, fmt.Sprintf("spans-%s-%d.jsonl", b.wl, b.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range tr.all() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("spans: %s\n", path)
	return nil
}

// safeDiv returns a/b, or NaN when b is zero.
func safeDiv(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	"odeproto/internal/service"
)

// probeSpecs stand in for an engine a workload never submits, so every
// traced run reports every engine layer. They run only in-process.
var probeSpecs = map[string]service.JobSpec{
	"agent":     {Source: sysEndemic.source, Params: sysEndemic.params, Engine: "agent", Shards: 1, N: 20000, Periods: 21, Seeds: 2, RecordEvery: 10, Initial: map[string]int{"x": 18000, "y": 2000}},
	"sharded":   {Source: sysEndemic.source, Params: sysEndemic.params, Engine: "agent", Shards: 4, N: 20000, Periods: 21, Seeds: 2, RecordEvery: 10, Initial: map[string]int{"x": 18000, "y": 2000}},
	"asyncnet":  {Source: sysEndemic.source, Params: sysEndemic.params, Engine: "asyncnet", N: 5000, Periods: 21, Seeds: 2, RecordEvery: 10, Initial: map[string]int{"x": 4500, "y": 500}},
	"aggregate": {Source: sysEndemic.source, Params: sysEndemic.params, Engine: "aggregate", N: 1_000_000, Periods: 30, Seeds: 1, Initial: map[string]int{"x": 900_000, "y": 100_000}},
}

// engineClass names the engine layer a (normalized) spec exercises.
func engineClass(spec service.JobSpec) string {
	spec = normalized(spec)
	if spec.Engine == service.EngineAgent && spec.Shards > 1 {
		return "sharded"
	}
	return spec.Engine
}

const maxReplays = 8

// layers computes the per-layer metrics: client spans of the traced
// window, server counters diffed around the untraced window, stage
// timestamps of sampled job traces, and direct library calls that replay
// sampled jobs (whose results must be byte-identical to the daemon's).
func (b *bench) layers(rep *report, plain, traced *windowStats, tr *tracer) error {
	spans := tr.all()
	rep.set("service.submit_us_p50", "us", median(durations(spans, "http.submit"))*1000, "client span around POST /v1/jobs")
	rep.set("service.stream_ms_p50", "ms", median(durations(spans, "http.stream")), "client span around the drained /stream")
	rep.set("service.status_get_us_p50", "us", median(durations(spans, "http.status"))*1000, "client span around the closing status GET")
	self := selfTimes(spans)
	var rootSelf, rootDur time.Duration
	for _, s := range spans {
		if s.Name == "op.job" {
			rootSelf += self[s.ID]
			rootDur += s.dur()
		}
	}
	rep.set("bench.unattributed_share", "ratio", safeDiv(float64(rootSelf), float64(rootDur)),
		"share of job latency outside the submit/stream/status spans")
	plainP50 := percentile(jobLatencies(plain), 0.5)
	tracedP50 := percentile(jobLatencies(traced), 0.5)
	rep.set("bench.tracing_overhead_pct", "%", (tracedP50-plainP50)/plainP50*100,
		fmt.Sprintf("job p50 %.3f ms traced vs %.3f ms untraced", tracedP50, plainP50))
	rep.set("obs.scrape_ms", "ms", median(append(append([]float64(nil), plain.scrapeTimes...), traced.scrapeTimes...)),
		"GET /metrics + obs.ParseExposition")

	// Server counters, diffed per node around the untraced window.
	w := plain.scr
	ops := float64(len(plain.outs))
	hits, misses := w.delta("odeproto_cache_hits_total"), w.delta("odeproto_cache_misses_total")
	disk := w.delta("odeproto_result_disk_hits_total")
	rep.set("service.cache_hit_ratio", "ratio", safeDiv(hits, hits+misses), fmt.Sprintf("%v LRU hits of %v submit lookups", hits, hits+misses))
	rep.set("service.disk_hit_ratio", "ratio", safeDiv(disk, hits+misses), fmt.Sprintf("%v lookups answered from disk", disk))
	reads := 0
	for _, o := range plain.outs {
		if o.kind != opJob || b.spec.nodes == 1 {
			reads++
		}
	}
	rep.set("service.result_bytes_per_read", "B", safeDiv(w.delta("odeproto_result_bytes_served_total"), float64(reads)), fmt.Sprintf("over %d reads", reads))
	qw := w.histDelta("odeproto_queue_wait_seconds")
	rep.set("service.queue_wait_ms_p50", "ms", qw.Quantile(0.5)*1000, fmt.Sprintf("n=%d, from the registry's buckets", qw.Count()))
	rep.set("store.wal_syncs_per_op", "count", w.delta("odeproto_wal_syncs_total")/ops, "")
	rep.set("store.wal_records_per_op", "count", w.delta("odeproto_wal_records_total")/ops, "")
	fwd, local := w.delta("odeproto_cluster_forwarded_total"), w.delta("odeproto_cluster_owner_local_total")
	rep.set("cluster.forwarded_share", "ratio", safeDiv(fwd, fwd+local), fmt.Sprintf("%v of %v routed requests", fwd, fwd+local))
	fl := w.histDelta("odeproto_cluster_forward_latency_seconds")
	rep.set("cluster.forward_ms_p50", "ms", fl.Quantile(0.5)*1000, fmt.Sprintf("n=%d", fl.Count()))

	if err := b.stageTraces(rep, plain); err != nil {
		return err
	}
	if err := b.compileLayer(rep, plain, tr); err != nil {
		return err
	}
	rep.set("mt19937.ns_per_draw", "ns", mtDraws(tr, 4_000_000), "4·10⁶ Uint64 draws")
	return b.replayLayer(rep, traced, tr)
}

func jobLatencies(w *windowStats) []float64 {
	var out []float64
	for _, o := range w.outs {
		if o.kind == opJob {
			out = append(out, ms(o.lat))
		}
	}
	return out
}

// stageTraces reads /v1/jobs/{id}/trace of every tenth job of the window
// (at most 40) and reports the median gap between consecutive stages.
func (b *bench) stageTraces(rep *report, w *windowStats) error {
	var compile, sweep, persist, respond []float64
	cl := b.newClient(nil)
	n := 0
	for i, o := range w.outs {
		if o.kind != opJob || o.err != nil || i%10 != 0 || n >= 40 {
			continue
		}
		n++
		code, body, _, err := cl.get(b.bases[o.node]+"/v1/jobs/"+o.id+"/trace", nil)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("trace of %s: HTTP %d %v", o.id, code, err)
		}
		var ts service.TraceStatus
		if err := json.Unmarshal(body, &ts); err != nil {
			return fmt.Errorf("trace of %s: %w", o.id, err)
		}
		at := make(map[string]time.Time)
		for _, sp := range ts.Spans {
			at[sp.Stage] = sp.At
		}
		gap := func(from, to string) (time.Duration, bool) {
			a, ok1 := at[from]
			z, ok2 := at[to]
			return z.Sub(a), ok1 && ok2
		}
		if d, ok := gap("queued", "compiled"); ok {
			compile = append(compile, us(d))
		}
		if d, ok := gap("compiled", "swept"); ok {
			sweep = append(sweep, ms(d))
		}
		if d, ok := gap("swept", "persisted"); ok {
			persist = append(persist, us(d))
		}
		last := "persisted"
		if _, ok := at[last]; !ok {
			last = "swept"
		}
		if d, ok := gap(last, "responded"); ok {
			respond = append(respond, us(d))
		}
	}
	rep.set("service.stage_compile_us", "us", median(compile), fmt.Sprintf("queued→compiled, n=%d sampled traces", len(compile)))
	rep.set("service.stage_sweep_ms", "ms", median(sweep), "compiled→swept (includes queue wait)")
	rep.set("service.stage_persist_us", "us", median(persist), "swept→persisted")
	rep.set("service.stage_respond_us", "us", median(respond), "persisted→responded")
	return nil
}

// compileLayer times the direct compile pipeline over the window's
// distinct compile requests (at most 64) and measures how many of the
// window's submissions carried a compile request not seen before.
func (b *bench) compileLayer(rep *report, w *windowStats, tr *tracer) error {
	seen := make(map[string]bool)
	var parse, rw, translate []float64
	submits, fresh := 0, 0
	for _, o := range w.outs {
		if o.spec == nil {
			continue
		}
		submits++
		k := compileKey(&o.spec.spec)
		if seen[k] {
			continue
		}
		seen[k] = true
		fresh++
		if len(seen) > 64 {
			continue
		}
		_, ct, err := compileDirect(tr, &o.spec.spec, "compile", 0)
		if err != nil {
			return fmt.Errorf("compiling %s: %w", o.class, err)
		}
		parse = append(parse, us(ct.parse))
		if ct.rewrite > 0 {
			rw = append(rw, us(ct.rewrite))
		}
		translate = append(translate, us(ct.translate))
	}
	rep.set("ode.parse_us", "us", median(parse), fmt.Sprintf("n=%d distinct sources", len(parse)))
	rep.set("rewrite.make_mappable_us", "us", median(rw), fmt.Sprintf("n=%d non-mappable sources", len(rw)))
	rep.set("core.translate_us", "us", median(translate), "")
	rep.set("input.distinct_compile_share", "ratio", safeDiv(float64(fresh), float64(submits)),
		fmt.Sprintf("%d distinct compile requests among %d submissions", fresh, submits))
	return nil
}

// replayLayer replays up to maxReplays sampled jobs of the window (the
// last of each class, so an in-memory daemon still holds its result in
// its LRU) plus a probe for every engine the window lacks. Window jobs
// must reproduce the daemon's result bytes exactly.
func (b *bench) replayLayer(rep *report, w *windowStats, tr *tracer) error {
	type item struct {
		spec service.JobSpec
		out  *outcome
	}
	var items []item
	classes := make(map[string]bool)
	engines := make(map[string]bool)
	for i := len(w.outs) - 1; i >= 0; i-- {
		o := &w.outs[i]
		if o.kind != opJob || o.err != nil || classes[o.class] || len(items) >= maxReplays {
			continue
		}
		classes[o.class] = true
		engines[engineClass(o.spec.spec)] = true
		items = append(items, item{o.spec.spec, o})
	}
	for _, e := range []string{"agent", "sharded", "asyncnet", "aggregate"} {
		if !engines[e] {
			items = append(items, item{spec: probeSpecs[e]})
		}
	}
	byEngine := make(map[string]*engineStats)
	var runTimes, encodes []float64
	var busy, wall time.Duration
	workers := 0
	cl := b.newClient(nil)
	memo := make(map[string]*compiledSys)
	for i, it := range items {
		req := fmt.Sprintf("replay-%d", i)
		root := tr.begin("replay", 0, req)
		cs, err := compileMemo(memo, &it.spec)
		if err != nil {
			root.end()
			return fmt.Errorf("replay %d: %w", i, err)
		}
		res, st, err := replay(it.spec, cs, tr, req, root.idOf())
		if err != nil {
			root.end()
			return fmt.Errorf("replay %d: %w", i, err)
		}
		data, took, err := encodeResult(res, tr, req, root.idOf())
		root.end()
		if err != nil {
			return err
		}
		encodes = append(encodes, us(took))
		if it.out != nil {
			code, body, _, err := cl.get(b.bases[it.out.node]+"/v1/results/"+it.out.key, nil)
			if err != nil || code != http.StatusOK || !bytes.Equal(body, data) {
				b.fail("job %s (%s): daemon result (HTTP %d, %d bytes, %v) is not byte-identical to the direct library run (%d bytes)",
					it.out.id, it.out.class, code, len(body), err, len(data))
			}
		}
		cls := engineClass(it.spec)
		agg := byEngine[cls]
		if agg == nil {
			agg = &engineStats{}
			byEngine[cls] = agg
		}
		agg.pp += st.pp
		agg.periods += st.periods
		agg.busy += st.busy
		agg.messages += st.messages
		agg.transitions += st.transitions
		agg.tokensLost += st.tokensLost
		for _, d := range st.runTimes {
			runTimes = append(runTimes, ms(d))
		}
		busy += st.busy
		wall += st.wall
		workers = st.workers
	}
	nsPer := func(e *engineStats, denom int64) float64 {
		return safeDiv(float64(e.busy.Nanoseconds()), float64(denom))
	}
	ag, sh, as, gg := byEngine["agent"], byEngine["sharded"], byEngine["asyncnet"], byEngine["aggregate"]
	rep.set("sim.agent_ns_per_proc_period", "ns", nsPer(ag, ag.pp), fmt.Sprintf("%d process-periods, K=1", ag.pp))
	rep.set("sim.sharded_ns_per_proc_period", "ns", nsPer(sh, sh.pp), fmt.Sprintf("%d process-periods, K≥2", sh.pp))
	msgs := float64(ag.messages + sh.messages)
	rep.set("sim.messages_per_proc_period", "count", safeDiv(msgs, float64(ag.pp+sh.pp)), "agent engine, serial and sharded")
	rep.set("sim.transitions_per_message", "ratio", safeDiv(float64(ag.transitions+sh.transitions), msgs), "useful transitions per connection attempt")
	rep.set("sim.tokens_lost_share", "ratio", safeDiv(float64(ag.tokensLost+sh.tokensLost), msgs), "tokens dropped per connection attempt")
	rep.set("sim.aggregate_us_per_period", "us", safeDiv(float64(gg.busy.Microseconds()), float64(gg.periods)), fmt.Sprintf("%d periods", gg.periods))
	rep.set("asyncnet.virtual_ns_per_message", "ns", nsPer(as, as.messages), fmt.Sprintf("%d messages", as.messages))
	rep.set("asyncnet.messages_per_proc_period", "count", safeDiv(float64(as.messages), float64(as.pp)), "")
	rep.set("harness.parallel_efficiency", "ratio", safeDiv(float64(busy), float64(wall)*float64(workers)),
		fmt.Sprintf("Σ run busy ÷ (wall · %d workers) over %d replays", workers, len(items)))
	rep.set("harness.run_ms_p50", "ms", median(runTimes), fmt.Sprintf("n=%d runs", len(runTimes)))
	rep.set("service.result_encode_us", "us", median(encodes), "json.Marshal of service.JobResult")
	return nil
}

// storeLayer drives a scratch FileStore after the daemons have stopped.
// For durable-mix, recovery is timed on node 0's real data directory.
func (b *bench) storeLayer(rep *report, tr *tracer) error {
	blobs := b.blobs
	if len(blobs) == 0 {
		blobs = [][]byte{[]byte(`{"states":["x","y"],"runs":[{"seed":1,"killed":0,"rows":[{"period":0,"counts":[500,500]}]}]}`)}
	}
	appends, puts, rec, err := storeProbe(filepath.Join(b.dir, "scratch-store"), blobs, 50, tr)
	if err != nil {
		return fmt.Errorf("store probe: %w", err)
	}
	note := "reopen of the scratch store"
	if b.spec.nodes > 1 {
		if rec, err = timedOpen(filepath.Join(b.dir, "node0"), tr); err != nil {
			return fmt.Errorf("reopening node0: %w", err)
		}
		note = "store.Open of node 0's data directory after the run"
	}
	rep.set("store.append_us_p50", "us", median(appends), fmt.Sprintf("n=%d fsync'd appends", len(appends)))
	rep.set("store.put_result_us_p50", "us", median(puts), fmt.Sprintf("n=%d blobs", len(puts)))
	rep.set("store.recover_s", "s", rec.Seconds(), note)
	return nil
}

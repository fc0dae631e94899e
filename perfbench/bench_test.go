package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"odeproto/internal/obs"
	"odeproto/internal/service"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0, 1}, {0.1, 1}, {0.5, 5}, {0.9, 9}, {0.95, 10}, {1, 10}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got == got {
		t.Errorf("percentile of no samples = %v, want NaN", got)
	}
	if s[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
}

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
		if c.want > 0 {
			if beyond := c.n - (rankIndex(c.n, c.want) + 1); beyond < 10 {
				t.Errorf("n=%d: %v leaves %d samples beyond it", c.n, c.want, beyond)
			}
		}
	}
	if quantileName(0.99) != "p99" || quantileName(0.9) != "p90" || quantileName(0.999) != "p99.9" {
		t.Errorf("quantile names: %s %s %s", quantileName(0.99), quantileName(0.9), quantileName(0.999))
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a: counted once
		{ID: 4, Parent: 2, Name: "a.child", Start: 15, End: 20},
		{ID: 5, Parent: 1, Name: "late", Start: 90, End: 120}, // clipped to the parent
	}
	got := selfTimes(spans)
	want := map[int]time.Duration{1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 5, 5: 30}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times = %v, want %v", got, want)
	}
}

func TestTracerRecordsNestedSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin("op", 0, "r1")
	child := tr.begin("call", root.idOf(), "r1")
	child.end()
	root.end()
	spans := tr.all()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[0].Req != "r1" || spans[0].End < spans[1].End {
		t.Fatalf("spans = %+v", spans)
	}
	var off *tracer
	if r := off.begin("x", 0, ""); r != nil || r.end() != 0 || r.idOf() != 0 || off.all() != nil {
		t.Error("a nil tracer must record nothing")
	}
}

func TestValidMetricName(t *testing.T) {
	for _, n := range []string{"setup_s", "sim.agent_ns_per_proc_period", "p99", "9lives", "a-b.c_d"} {
		if !validMetricName(n) {
			t.Errorf("%q rejected", n)
		}
	}
	for _, n := range []string{"", "_x", ".x", "a b", "a/b", "a%", "é", strings.Repeat("a", 65)} {
		if validMetricName(n) {
			t.Errorf("%q accepted", n)
		}
	}
	for _, n := range append(append([]string(nil), e2eMetrics...), layerMetrics...) {
		if !validMetricName(n) {
			t.Errorf("declared metric %q is invalid", n)
		}
	}
}

// opsOf draws n operations from a fresh generator.
func opsOf(wl string, seed int64, client, n int) []op {
	g := newGenerator(wl, seed, client, workloads[wl].nodes, 100)
	out := make([]op, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

func TestGeneratorReproducesRequestsForASeed(t *testing.T) {
	for wl := range workloads {
		a, b := opsOf(wl, 7, 1, 300), opsOf(wl, 7, 1, 300)
		for i := range a {
			if !bytes.Equal(a[i].body, b[i].body) || a[i].kind != b[i].kind || a[i].keyRank != b[i].keyRank ||
				a[i].variant != b[i].variant || a[i].node != b[i].node || a[i].class != b[i].class {
				t.Fatalf("%s: op %d differs between two generators with the same seed", wl, i)
			}
		}
		c := opsOf(wl, 8, 1, 300)
		same := true
		for i := range a {
			same = same && bytes.Equal(a[i].body, c[i].body) && a[i].keyRank == c[i].keyRank
		}
		if same {
			t.Errorf("%s: seeds 7 and 8 generated the same requests", wl)
		}
	}
}

func TestGeneratedJobSpecsAreDistinct(t *testing.T) {
	for wl := range workloads {
		seen := make(map[string]bool)
		for client := 0; client < clients; client++ {
			for _, o := range opsOf(wl, 3, client, 500) {
				if o.kind != opJob {
					continue
				}
				if seen[string(o.body)] {
					t.Fatalf("%s: duplicate new-job spec %s", wl, o.body)
				}
				seen[string(o.body)] = true
			}
		}
	}
}

func TestDurableMixKeepsItsMix(t *testing.T) {
	count := map[opKind]int{}
	for _, o := range opsOf("durable-mix", 5, 0, 1000) {
		count[o.kind]++
		if o.kind == opDup && !bytes.Equal(o.body, newJobOp(opDup, "", preloadSpec(5, o.keyRank)).body) {
			t.Fatal("a duplicate POST does not repeat its preloaded spec")
		}
	}
	if count[opRead] != 800 || count[opDup] != 100 || count[opJob] != 100 {
		t.Errorf("mix = %v, want 800 reads, 100 duplicates, 100 new jobs", count)
	}
}

func TestExpectedRowsMatchesTheRecordingRule(t *testing.T) {
	for periods := 1; periods <= 45; periods++ {
		for every := 1; every <= 12; every++ {
			want := 0
			for p := 0; p < periods; p++ {
				if p%every == 0 || p == periods-1 {
					want++
				}
			}
			if got := expectedRows(periods, every); got != want {
				t.Fatalf("expectedRows(%d, %d) = %d, want %d", periods, every, got, want)
			}
		}
	}
}

func TestStreamRowFieldsParse(t *testing.T) {
	line, err := json.Marshal(service.StreamRow{Run: 1, Seed: -42, Period: 30, Counts: []int{7, 0, 12345}})
	if err != nil {
		t.Fatal(err)
	}
	run, ok1 := jsonInt(line, "run")
	period, ok2 := jsonInt(line, "period")
	counts, ok3 := jsonInts(line, "counts", nil)
	if !ok1 || !ok2 || !ok3 || run != 1 || period != 30 || !reflect.DeepEqual(counts, []int{7, 0, 12345}) {
		t.Fatalf("parsed run=%d period=%d counts=%v from %s", run, period, counts, line)
	}
	if _, ok := jsonString(line, "event"); ok {
		t.Error("a data row parsed as a terminal event")
	}
	term, _ := json.Marshal(service.StreamRow{Period: -1, Event: "done"})
	if ev, ok := jsonString(term, "event"); !ok || ev != "done" {
		t.Errorf("terminal row event = %q, %v", ev, ok)
	}
}

func TestHistogramDeltaFromExposition(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.HistogramVec("lat_seconds", "test", obs.DefBuckets, "engine")
	scrapeReg := func() scrape {
		rec := httptest.NewRecorder()
		reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		fams, err := obs.ParseExposition(rec.Body)
		if err != nil {
			t.Fatal(err)
		}
		return scrape(fams)
	}
	h.With("agent").Observe(0.002)
	before := scrapeReg()
	for _, v := range []float64{0.003, 0.004, 0.2, 0.3, 7} {
		h.With("agent").Observe(v)
	}
	h.With("asyncnet").Observe(0.02)
	w := window{before: []scrape{before}, after: []scrape{scrapeReg()}}
	d := w.histDelta("lat_seconds")
	if d.Count() != 6 {
		t.Fatalf("window count = %d, want 6", d.Count())
	}
	if got := d.Quantile(0.5); got < 0.01 || got > 0.025 {
		t.Errorf("window median = %v, want within the (0.01, 0.025] bucket", got)
	}
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	if got := names(bj.EndToEnd); !reflect.DeepEqual(got, e2eMetrics) {
		t.Errorf("BENCHMARK.json end_to_end = %v, the benchmark reports %v", got, e2eMetrics)
	}
	if got := names(bj.PerLayer); !reflect.DeepEqual(got, layerMetrics) {
		t.Errorf("BENCHMARK.json per_layer = %v, the benchmark reports %v", got, layerMetrics)
	}
	got := names(bj.Workloads)
	if want := sortedKeys(workloads); !reflect.DeepEqual(sortedCopy(got), want) {
		t.Errorf("BENCHMARK.json workloads = %v, the benchmark runs %v", got, want)
	}
}

func sortedCopy(s []string) []string {
	m := make(map[string]bool, len(s))
	for _, x := range s {
		m[x] = true
	}
	return sortedKeys(m)
}

func TestManifestDescribesEveryMetric(t *testing.T) {
	data, err := os.ReadFile("manifest.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workloads map[string]json.RawMessage
		EndToEnd  map[string]struct {
			InResultLine bool `json:"in_result_line"`
		} `json:"end_to_end"`
		PerLayer map[string]json.RawMessage `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, n := range e2eMetrics {
		if !m.EndToEnd[n].InResultLine {
			t.Errorf("manifest.json does not list %s as a result-line metric", n)
		}
	}
	for _, n := range layerMetrics {
		if _, ok := m.PerLayer[n]; !ok {
			t.Errorf("manifest.json lacks layer metric %s", n)
		}
	}
	for wl := range workloads {
		if _, ok := m.Workloads[wl]; !ok {
			t.Errorf("manifest.json lacks workload %s", wl)
		}
	}
}

func TestQuietQuartileIgnoresAStall(t *testing.T) {
	start := time.Unix(0, 0)
	w := &windowStats{parts: 10, start: start, wall: 10 * time.Second}
	for s := 0; s < 10; s++ {
		n, lat := 100, 5*time.Millisecond
		switch s {
		case 3: // a stall: nothing completes, then a slow trickle
			n = 0
		case 7:
			n, lat = 10, 50*time.Millisecond
		}
		for i := 0; i < n; i++ {
			at := start.Add(time.Duration(s)*time.Second + time.Duration(i)*time.Millisecond)
			w.outs = append(w.outs, outcome{kind: opJob, lat: lat, at: at})
		}
	}
	if got := w.rate(func(outcome) float64 { return 1 }); got != 100 {
		t.Errorf("quiet-quartile rate = %v, want 100", got)
	}
	got := w.quietLatency(func(o outcome) (float64, bool) { return ms(o.lat), true })
	if got != 5 {
		t.Errorf("quiet-quartile latency = %v ms, want 5", got)
	}
}

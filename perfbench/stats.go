package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"sync"
	"time"
)

// percentile returns the nearest-rank q-quantile (q in [0,1]) of the
// samples, sorting a copy. It returns NaN for no samples.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rankIndex(len(s), q)]
}

// rankIndex is the nearest-rank index of quantile q among n sorted samples.
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// tailQuantiles are the tail percentiles the report chooses from.
var tailQuantiles = []float64{0.5, 0.9, 0.99, 0.999}

// tailQuantile returns the highest quantile in tailQuantiles with at least
// ten samples beyond it, or 0 when even the median has fewer. A timing is
// reported as a median plus this tail, so the tail is never one outlier.
func tailQuantile(n int) float64 {
	best := 0.0
	for _, q := range tailQuantiles {
		if n-(rankIndex(n, q)+1) >= 10 {
			best = q
		}
	}
	return best
}

// quantileName renders 0.99 as "p99" and 0.999 as "p99.9".
func quantileName(q float64) string {
	return "p" + fmt.Sprint(math.Round(q*1000)/10)
}

// median of the samples (NaN for none).
func median(samples []float64) float64 { return percentile(samples, 0.5) }

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validMetricName reports whether name is a legal metric name: it starts
// with a letter or digit and uses only [A-Za-z0-9_.-], at most 64 bytes.
func validMetricName(name string) bool { return metricNameRE.MatchString(name) }

// span is one timed call into a layer, recorded by the benchmark around
// its own calls. Spans of one request share Req; Parent is the ID of the
// span that caused this one (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef is an open span; end closes it.
type spanRef struct {
	t  *tracer
	id int
	s  span
}

// begin opens a span named name under parent (0 = root) for request req.
func (t *tracer) begin(name string, parent int, req string) *spanRef {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{}) // reserve the slot; filled at end
	t.mu.Unlock()
	return &spanRef{t: t, id: id, s: span{ID: id, Parent: parent, Name: name, Req: req,
		Start: int64(time.Since(t.t0))}}
}

// idOf returns the span's ID for use as a child's parent (0 when untraced).
func (r *spanRef) idOf() int {
	if r == nil {
		return 0
	}
	return r.id
}

// end closes the span and returns its duration.
func (r *spanRef) end() time.Duration {
	if r == nil {
		return 0
	}
	r.s.End = int64(time.Since(r.t.t0))
	r.t.mu.Lock()
	r.t.spans[r.id-1] = r.s
	r.t.mu.Unlock()
	return r.s.dur()
}

// all returns the closed spans.
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.ID != 0 {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations (ms) of the closed spans named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/float64(time.Millisecond))
		}
	}
	return out
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its children cover (overlapping children count once).
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the kids' intervals clipped to p.
func covered(p span, kids []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return time.Duration(total)
}

package main

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"time"

	"odeproto/internal/obs"
)

// scrape is one node's parsed /metrics exposition.
type scrape map[string]*obs.MetricFamily

// requiredFamilies are the server counters every workload reads; a run
// fails when a node does not expose one of them.
var requiredFamilies = []string{
	"odeproto_sweeps_executed_total",
	"odeproto_jobs_submitted_total",
	"odeproto_cache_hits_total",
	"odeproto_cache_misses_total",
	"odeproto_result_disk_hits_total",
	"odeproto_result_bytes_served_total",
	"odeproto_queue_wait_seconds",
	"odeproto_sweep_latency_seconds",
	"odeproto_wal_records_total",
	"odeproto_wal_syncs_total",
}

// clusterFamilies are additionally required of clustered nodes.
var clusterFamilies = []string{
	"odeproto_cluster_forwarded_total",
	"odeproto_cluster_owner_local_total",
	"odeproto_cluster_forward_latency_seconds",
}

// scrapeNode fetches and parses one node's /metrics, checking that the
// required families are present.
func scrapeNode(c *http.Client, base string, tr *tracer, clustered bool) (scrape, time.Duration, error) {
	t0 := time.Now()
	sp := tr.begin("obs.scrape", 0, "scrape")
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		sp.end()
		return nil, 0, err
	}
	fams, err := obs.ParseExposition(resp.Body)
	resp.Body.Close()
	sp.end()
	took := time.Since(t0)
	if err != nil {
		return nil, 0, fmt.Errorf("parsing %s/metrics: %w", base, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("%s/metrics: HTTP %d", base, resp.StatusCode)
	}
	need := requiredFamilies
	if clustered {
		need = append(append([]string(nil), need...), clusterFamilies...)
	}
	for _, f := range need {
		if _, ok := fams[f]; !ok {
			return nil, 0, fmt.Errorf("%s/metrics lacks the required family %s", base, f)
		}
	}
	return scrape(fams), took, nil
}

// total sums every sample of a counter or gauge family across label sets.
func (s scrape) total(name string) float64 {
	f, ok := s[name]
	if !ok {
		return 0
	}
	sum := 0.0
	for _, smp := range f.Samples {
		if smp.Name == name {
			sum += smp.Value
		}
	}
	return sum
}

// hist merges every label set of a histogram family into one snapshot over
// the registry's own bucket bounds.
func (s scrape) hist(name string) obs.HistogramSnapshot {
	f, ok := s[name]
	if !ok {
		return obs.HistogramSnapshot{}
	}
	byLE := make(map[float64]int64)
	sum := 0.0
	for _, smp := range f.Samples {
		switch smp.Name {
		case name + "_bucket":
			le, err := strconv.ParseFloat(smp.Labels["le"], 64)
			if err == nil {
				byLE[le] += int64(smp.Value)
			}
		case name + "_sum":
			sum += smp.Value
		}
	}
	var snap obs.HistogramSnapshot
	les := make([]float64, 0, len(byLE))
	for le := range byLE {
		les = append(les, le)
	}
	sort.Float64s(les)
	for _, le := range les {
		if !math.IsInf(le, 1) {
			snap.Upper = append(snap.Upper, le)
		}
		snap.Cum = append(snap.Cum, byLE[le])
	}
	snap.Sum = sum
	return snap
}

// window is the per-node difference of two scrapes around a measured
// window, summed over nodes.
type window struct {
	before, after []scrape
}

func (w window) delta(name string) float64 {
	d := 0.0
	for i := range w.after {
		d += w.after[i].total(name) - w.before[i].total(name)
	}
	return d
}

// histDelta is the merged distribution observed during the window.
func (w window) histDelta(name string) obs.HistogramSnapshot {
	var merged obs.HistogramSnapshot
	for i := range w.after {
		d := w.after[i].hist(name).Sub(w.before[i].hist(name))
		if merged.Cum == nil {
			merged = d
			continue
		}
		for j := range merged.Cum {
			if j < len(d.Cum) {
				merged.Cum[j] += d.Cum[j]
			}
		}
		merged.Sum += d.Sum
	}
	return merged
}

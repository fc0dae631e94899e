package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// newHTTPClient returns the generator's client. Compression is off so an
// identity request really is one; gzip is only ever asked for explicitly.
// The timeout turns a hung daemon into a failed operation well within a
// run's time limit.
func newHTTPClient() *http.Client {
	return &http.Client{Timeout: time.Minute, Transport: &http.Transport{
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
	}}
}

// outcome is one finished operation.
type outcome struct {
	kind    opKind
	class   string
	lat     time.Duration // job: POST → stream drained → status done; read: the request
	readLat time.Duration // job: the closing status GET, which serves the result bytes
	pp      int64
	id      string
	key     string
	node    int
	err     error
	final   [][]int // last recorded counts per run (jobs with an ODE check)
	spec    *op
	at      time.Time // completion
}

// client issues operations against the nodes. Each client runs one
// operation at a time (closed loop).
type client struct {
	hc    *http.Client
	nodes []string
	tr    *tracer
	// expected result bytes of durable-mix keys, by rank, and the first
	// gzip body seen per rank.
	keys    []string
	blobs   [][]byte
	gzipMu  *sync.Mutex
	gzipped map[int][]byte
}

// do runs one operation.
func (c *client) do(o *op, req string) outcome {
	var out outcome
	switch o.kind {
	case opJob:
		out = c.job(o, req)
	case opRead:
		out = c.read(o, req)
	default:
		out = c.dup(o, req)
	}
	out.at = time.Now()
	return out
}

// job submits a new job, drains its stream, and fetches its final status.
func (c *client) job(o *op, req string) outcome {
	out := outcome{kind: opJob, class: o.class, pp: o.pp, node: o.node, spec: o}
	base := c.nodes[o.node]
	t0 := time.Now()
	root := c.tr.begin("op.job", 0, req)
	defer root.end()

	sp := c.tr.begin("http.submit", root.idOf(), req)
	code, body, err := c.post(base+"/v1/jobs", o.body)
	sp.end()
	if err != nil {
		out.err = err
		return out
	}
	// A fast job may already be done when the submit answers (200), but
	// a new spec must never be answered from the cache.
	if (code != http.StatusAccepted && code != http.StatusOK) || bytes.Contains(body[:min(len(body), 400)], []byte(`"cached":true`)) {
		out.err = fmt.Errorf("submit %s: HTTP %d: %.200s", o.class, code, body)
		return out
	}
	var st struct {
		ID       string `json:"id"`
		CacheKey string `json:"cache_key"`
	}
	if err := json.Unmarshal(body, &st); err != nil || st.ID == "" {
		out.err = fmt.Errorf("submit %s: undecodable status: %v", o.class, err)
		return out
	}
	out.id, out.key = st.ID, st.CacheKey

	sp = c.tr.begin("http.stream", root.idOf(), req)
	final, err := c.stream(base+"/v1/jobs/"+st.ID+"/stream", o)
	sp.end()
	if err != nil {
		out.err = fmt.Errorf("job %s (%s): %w", st.ID, o.class, err)
		return out
	}
	out.final = final

	t1 := time.Now()
	sp = c.tr.begin("http.status", root.idOf(), req)
	code, body, _, err = c.get(base+"/v1/jobs/"+st.ID, nil)
	sp.end()
	out.readLat = time.Since(t1)
	out.lat = time.Since(t0)
	switch {
	case err != nil:
		out.err = err
	case code != http.StatusOK || !bytes.Contains(body[:min(len(body), 64)], []byte(`"status":"done"`)):
		out.err = fmt.Errorf("job %s (%s) not done after its stream closed: HTTP %d %.200s", st.ID, o.class, code, body)
	}
	return out
}

// stream drains a job's NDJSON stream and checks every row: the row count
// matches the recording rule and each row's counts sum to the processes
// alive at that period. It returns each run's last counts when the job's
// trajectory is checked against its ODE.
func (c *client) stream(url string, o *op) ([][]int, error) {
	resp, err := c.hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stream: HTTP %d", resp.StatusCode)
	}
	killAt, killed := -1, 0
	for _, e := range o.spec.Events {
		if e.Kind == "kill-fraction" {
			killAt = e.At
			killed = int(float64(o.spec.N)*e.Frac + 0.5)
		}
	}
	var final [][]int
	if o.odeBand {
		final = make([][]int, max(o.spec.Seeds, 1))
	}
	rows, terminal := 0, ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	var counts []int
	for sc.Scan() {
		line := sc.Bytes()
		if ev, ok := jsonString(line, "event"); ok {
			terminal = ev
			continue
		}
		run, ok1 := jsonInt(line, "run")
		period, ok2 := jsonInt(line, "period")
		var ok3 bool
		counts, ok3 = jsonInts(line, "counts", counts[:0])
		if !ok1 || !ok2 || !ok3 {
			return nil, fmt.Errorf("malformed stream row %.120s", line)
		}
		sum := 0
		for _, v := range counts {
			sum += v
		}
		want := o.spec.N
		if killAt >= 0 && period >= killAt {
			want -= killed
		}
		if sum != want {
			return nil, fmt.Errorf("row run %d period %d counts sum to %d, want %d alive", run, period, sum, want)
		}
		if final != nil && run >= 0 && run < len(final) {
			final[run] = append(final[run][:0], counts...)
		}
		rows++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if terminal != "done" {
		return nil, fmt.Errorf("stream ended with event %q, want done", terminal)
	}
	if rows != o.rows {
		return nil, fmt.Errorf("stream carried %d rows, want %d", rows, o.rows)
	}
	return final, nil
}

// read fetches a preloaded result and checks it: identity bytes equal the
// canonical bytes, a revalidation answers a bodiless 304, and a gzip body
// equals the first gzip body seen for the key.
func (c *client) read(o *op, req string) outcome {
	out := outcome{kind: opRead, class: o.class, node: o.node}
	key := c.keys[o.keyRank]
	h := http.Header{}
	switch o.variant {
	case readRevalidate:
		h.Set("If-None-Match", `"`+key+`"`)
	case readGzip:
		h.Set("Accept-Encoding", "gzip")
	}
	t0 := time.Now()
	sp := c.tr.begin("http.result_get", 0, req)
	code, body, hdr, err := c.get(c.nodes[o.node]+"/v1/results/"+key, h)
	sp.end()
	out.lat = time.Since(t0)
	if err != nil {
		out.err = err
		return out
	}
	switch o.variant {
	case readIdentity:
		if code != http.StatusOK || !bytes.Equal(body, c.blobs[o.keyRank]) {
			out.err = fmt.Errorf("result %s: HTTP %d, %d bytes differ from the canonical %d", key, code, len(body), len(c.blobs[o.keyRank]))
		}
	case readRevalidate:
		if code != http.StatusNotModified || len(body) != 0 {
			out.err = fmt.Errorf("revalidating %s: HTTP %d with %d bytes, want a bodiless 304", key, code, len(body))
		}
	case readGzip:
		if code != http.StatusOK || len(body) == 0 {
			out.err = fmt.Errorf("gzip result %s: HTTP %d", key, code)
			break
		}
		if hdr.Get("Content-Encoding") != "gzip" {
			// A result only on disk, with no gzip sibling written yet, is
			// served as identity bytes.
			if !bytes.Equal(body, c.blobs[o.keyRank]) {
				out.err = fmt.Errorf("result %s (gzip accepted, identity served) differs from the canonical bytes", key)
			}
			break
		}
		c.gzipMu.Lock()
		first, seen := c.gzipped[o.keyRank]
		if !seen {
			c.gzipped[o.keyRank] = body
		}
		c.gzipMu.Unlock()
		if seen && !bytes.Equal(first, body) {
			out.err = fmt.Errorf("gzip result %s differs between reads", key)
		}
	}
	return out
}

// dup re-submits a preloaded spec; the answer must come from the cache.
func (c *client) dup(o *op, req string) outcome {
	out := outcome{kind: opDup, class: o.class, node: o.node, spec: o}
	t0 := time.Now()
	sp := c.tr.begin("http.dup_submit", 0, req)
	code, body, err := c.post(c.nodes[o.node]+"/v1/jobs", o.body)
	sp.end()
	out.lat = time.Since(t0)
	head := body[:min(len(body), 400)]
	switch {
	case err != nil:
		out.err = err
	case code != http.StatusOK || !bytes.Contains(head, []byte(`"status":"done"`)) || !bytes.Contains(head, []byte(`"cached":true`)):
		out.err = fmt.Errorf("duplicate submit of key %d not answered from cache: HTTP %d %.200s", o.keyRank, code, body)
	case !bytes.Contains(head, []byte(c.keys[o.keyRank])):
		out.err = fmt.Errorf("duplicate submit of key %d answered under another key", o.keyRank)
	}
	return out
}

func (c *client) post(url string, body []byte) (int, []byte, error) {
	resp, err := c.hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func (c *client) get(url string, h http.Header) (int, []byte, http.Header, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, nil, err
	}
	for k, v := range h {
		req.Header[k] = v
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, resp.Header, err
}

// The stream rows are encoding/json output of a fixed struct, so the few
// fields the checks need are located by key instead of decoding each row.

func fieldStart(line []byte, key string) int {
	pat := `"` + key + `":`
	i := bytes.Index(line, []byte(pat))
	if i < 0 {
		return -1
	}
	return i + len(pat)
}

func jsonInt(line []byte, key string) (int, bool) {
	i := fieldStart(line, key)
	if i < 0 {
		return 0, false
	}
	j := i
	for j < len(line) && (line[j] == '-' || line[j] >= '0' && line[j] <= '9') {
		j++
	}
	v, err := strconv.Atoi(string(line[i:j]))
	return v, err == nil
}

func jsonInts(line []byte, key string, dst []int) ([]int, bool) {
	i := fieldStart(line, key)
	if i < 0 || i >= len(line) || line[i] != '[' {
		return dst, false
	}
	v, neg, inNum := 0, false, false
	for _, b := range line[i+1:] {
		switch {
		case b >= '0' && b <= '9':
			v, inNum = v*10+int(b-'0'), true
		case b == '-':
			neg = true
		case b == ',' || b == ']':
			if inNum {
				if neg {
					v = -v
				}
				dst = append(dst, v)
			}
			if b == ']' {
				return dst, true
			}
			v, neg, inNum = 0, false, false
		default:
			return dst, false
		}
	}
	return dst, false
}

func jsonString(line []byte, key string) (string, bool) {
	i := fieldStart(line, key)
	if i < 0 || i >= len(line) || line[i] != '"' {
		return "", false
	}
	j := bytes.IndexByte(line[i+1:], '"')
	if j < 0 {
		return "", false
	}
	return string(line[i+1 : i+1+j]), true
}

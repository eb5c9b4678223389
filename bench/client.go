package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/service"
)

const (
	// opDeadline bounds one workload op, retries included; an op that
	// is still refused (429/503) when it expires counts as failed.
	opDeadline = 20 * time.Second
	// pollEvery is the job-status poll period: short enough that the
	// quantisation is small beside a job (tens of ms), long enough that
	// two pollers do not take the cores from the two executor workers.
	pollEvery = time.Millisecond
)

// client is one load generator's view of a node or router. conns caps
// its connections, so clients + connections stay within nproc.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, IdleConnTimeout: time.Minute}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: opDeadline}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

type response struct {
	status int
	body   []byte
	header http.Header
	dur    time.Duration
}

func (c *client) do(method, path string, body []byte, etag string) (response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return response{}, err
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return response{}, err
	}
	return response{status: resp.StatusCode, body: payload, header: resp.Header, dur: time.Since(start)}, nil
}

func (c *client) get(path string) (response, error) { return c.do("GET", path, nil, "") }

// getOK is get for the untimed parts (set-up, oracles): any answer but
// 200 is an error.
func (c *client) getOK(path string) ([]byte, error) {
	r, err := c.get(path)
	if err != nil {
		return nil, err
	}
	if r.status != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d: %.200s", path, r.status, r.body)
	}
	return r.body, nil
}

// retried sends a request until it is no longer refused with 429 or
// 503, or the deadline passes. The returned duration covers every
// attempt, so a retried op pays for its refusals.
func (c *client) retried(method, path string, body []byte, deadline time.Time) (response, error) {
	start := time.Now()
	for {
		r, err := c.do(method, path, body, "")
		if err != nil {
			return r, err
		}
		if r.status != http.StatusTooManyRequests && r.status != http.StatusServiceUnavailable {
			r.dur = time.Since(start)
			return r, nil
		}
		if time.Now().After(deadline) {
			return r, fmt.Errorf("%s %s: still refused with %d at the op deadline", method, path, r.status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// submit posts one job and returns once it is accepted.
func (c *client) submit(req service.JobRequest, deadline time.Time) (time.Duration, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	r, err := c.retried("POST", "/jobs", body, deadline)
	if err != nil {
		return 0, err
	}
	if r.status != http.StatusAccepted {
		return 0, fmt.Errorf("POST /jobs %s: %d: %.200s", req.ID, r.status, r.body)
	}
	return r.dur, nil
}

// waitDone polls a job's status until it is done.
func (c *client) waitDone(id string, deadline time.Time) (*service.JobState, error) {
	for {
		r, err := c.get("/jobs/" + id)
		if err != nil {
			return nil, err
		}
		if r.status != http.StatusOK {
			return nil, fmt.Errorf("GET /jobs/%s: %d: %.200s", id, r.status, r.body)
		}
		var st service.JobState
		if err := json.Unmarshal(r.body, &st); err != nil {
			return nil, err
		}
		switch st.Status {
		case service.StatusDone:
			return &st, nil
		case service.StatusFailed, service.StatusCanceled:
			return nil, fmt.Errorf("job %s %s: %s", id, st.Status, st.Error)
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("job %s still %s at the op deadline", id, st.Status)
		}
		time.Sleep(pollEvery)
	}
}

// jobTimes are the client-side spans of one submit → done → archive op.
type jobTimes struct {
	ack, wait, fetch, total time.Duration
}

// runJob is the write op of the serving workloads: POST /jobs, poll
// until done, GET the archive. It returns the archive bytes.
func (c *client) runJob(tr *Tracer, op int, req service.JobRequest) ([]byte, jobTimes, error) {
	var jt jobTimes
	start := time.Now()
	deadline := start.Add(opDeadline)
	root := tr.Start("bench.job", 0, op)
	defer tr.End(root)

	sp := tr.Start("service.submit_ack", root, op)
	ack, err := c.submit(req, deadline)
	tr.End(sp)
	if err != nil {
		return nil, jt, err
	}
	jt.ack = ack

	sp = tr.Start("service.done_wait", root, op)
	t0 := time.Now()
	_, err = c.waitDone(req.ID, deadline)
	jt.wait = time.Since(t0)
	tr.End(sp)
	if err != nil {
		return nil, jt, err
	}

	sp = tr.Start("service.archive_get", root, op)
	r, err := c.get("/jobs/" + req.ID + "/archive")
	tr.End(sp)
	if err != nil {
		return nil, jt, err
	}
	if r.status != http.StatusOK || len(r.body) == 0 {
		return nil, jt, fmt.Errorf("GET /jobs/%s/archive: %d (%d bytes)", req.ID, r.status, len(r.body))
	}
	jt.fetch = r.dur
	jt.total = time.Since(start)
	return r.body, jt, nil
}

// counters is one scrape of a Prometheus text exposition: series name
// with its label set, verbatim, to value.
type counters map[string]float64

func (c *client) scrape() (counters, error) {
	body, err := c.getOK("/metrics")
	if err != nil {
		return nil, err
	}
	out := counters{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] += v
	}
	return out, sc.Err()
}

// sum adds every series whose name (before any label set) is
// name and whose labels contain all of the given fragments.
func (c counters) sum(name string, labelParts ...string) float64 {
	total := 0.0
	for k, v := range c {
		base, labels, _ := strings.Cut(k, "{")
		if base != name {
			continue
		}
		match := true
		for _, p := range labelParts {
			if !strings.Contains(labels, p) {
				match = false
				break
			}
		}
		if match {
			total += v
		}
	}
	return total
}

// delta is after minus before, series by series.
func (c counters) delta(before counters) counters {
	out := counters{}
	for k, v := range c {
		out[k] = v - before[k]
	}
	return out
}

// add accumulates another scrape (used to total the shards of a cluster).
func (c counters) add(o counters) {
	for k, v := range o {
		c[k] += v
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"time"
)

// transport sends one request and reports the status, the whole
// response body and the time from send to last byte read.
type transport func(r *request) (status int, body []byte, d time.Duration, err error)

// httpTransport is one closed-loop client: a single keep-alive
// connection, the next request sent only after the previous response
// has been read to the end.
func httpTransport(base string) transport {
	hc := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   90 * time.Second, // above the server's own 60 s debug deadline
	}
	return func(r *request) (int, []byte, time.Duration, error) {
		req, err := http.NewRequest(http.MethodPost, base+"/api/"+r.op, bytes.NewReader(r.body))
		if err != nil {
			return 0, nil, 0, err
		}
		req.Header.Set("Content-Type", "application/json")
		t0 := time.Now()
		resp, err := hc.Do(req)
		if err != nil {
			return 0, nil, time.Since(t0), err
		}
		body, err := io.ReadAll(resp.Body)
		d := time.Since(t0)
		resp.Body.Close()
		return resp.StatusCode, body, d, err
	}
}

// sample is one attempted request.
type sample struct {
	req  *request
	warm bool // warm-up prefix: verified, but not measured
	ms   float64
	// body is the response, kept only on the first sample of a client
	// with this (key, hash); later ones point at it through same and
	// share its verdict.
	body []byte
	same *sample
	fail string // why the request counts as failed ("" = verified)
}

// flowSample is one whole flow, first request sent to last response read.
type flowSample struct {
	ms        float64
	ok        bool
	warm      bool
	retention bool // stream_monitor flows that also applied retention
}

// recorder collects one client's samples.
type recorder struct {
	client  int
	samples []*sample
	flows   []flowSample
	seen    map[string]map[uint64]*sample
}

func newRecorder(client int) *recorder {
	return &recorder{client: client, seen: map[string]map[uint64]*sample{}}
}

func (rec *recorder) add(s *sample, body []byte) {
	rec.samples = append(rec.samples, s)
	if s.fail != "" {
		return
	}
	if s.req.key == "" {
		s.body = body
		return
	}
	h := fnv.New64a()
	h.Write(body)
	sum := h.Sum64()
	byHash := rec.seen[s.req.key]
	if byHash == nil {
		byHash = map[uint64]*sample{}
		rec.seen[s.req.key] = byHash
	}
	if first, ok := byHash[sum]; ok {
		s.same = first
		return
	}
	byHash[sum] = s
	s.body = body
}

// runFlow plays one flow. A request that cannot be sent or comes back
// non-2xx fails, and so does the rest of its flow, which depended on
// the state it should have left on the server.
func (rec *recorder) runFlow(flow []*request, warm bool, do transport) {
	var lastQuery []byte
	fs := flowSample{ok: true, warm: warm}
	t0 := time.Now()
	broken := ""
	for _, r := range flow {
		s := &sample{req: r, warm: warm}
		if r.op == "retention" {
			fs.retention = true
		}
		if broken == "" && r.needsSuspects() {
			if err := r.bind(lastQuery); err != nil {
				broken = err.Error()
			}
		}
		if broken != "" {
			s.fail = "not sent: " + broken
			rec.add(s, nil)
			continue
		}
		status, body, d, err := do(r)
		s.ms = float64(d) / float64(time.Millisecond)
		switch {
		case err != nil:
			s.fail = "transport: " + err.Error()
		case status < 200 || status > 299:
			s.fail = fmt.Sprintf("status %d: %s", status, clip(body, 200))
		}
		if s.fail != "" {
			broken = "earlier " + r.op + " failed"
		} else if r.op == "query" {
			lastQuery = body
		}
		rec.add(s, body)
	}
	fs.ms = float64(time.Since(t0)) / float64(time.Millisecond)
	fs.ok = broken == ""
	rec.flows = append(rec.flows, fs)
}

// warmUp plays n flows whose timings are not reported (they are still
// verified): lazy column views, clause masks and the buffer pool reach
// steady state before the clock starts.
func (rec *recorder) warmUp(sc script, do transport, n int) {
	for i := 0; i < n; i++ {
		rec.runFlow(sc.next(), true, do)
	}
}

// measure plays the script's next n flows, or fewer if the deadline
// passes or abort fires first: a server that has become several times
// slower must not run the benchmark past its time cap. The flows are
// generated and encoded before the clock starts, so the generator costs
// the measured window neither time nor a core. It reports how many
// flows it played.
func (rec *recorder) measure(sc script, do transport, n int, deadline time.Time, abort <-chan struct{}) (began, ended time.Time, played int) {
	flows := make([][]*request, n)
	for i := range flows {
		flows[i] = sc.next()
	}
	began = time.Now()
	for ; played < n && time.Now().Before(deadline); played++ {
		select {
		case <-abort:
			return began, time.Now(), played
		default:
		}
		rec.runFlow(flows[played], false, do)
	}
	return began, time.Now(), played
}

func clip(b []byte, n int) string {
	if len(b) > n {
		b = b[:n]
	}
	return string(bytes.TrimSpace(b))
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// span is one timed request at a layer boundary, recorded only from the
// benchmark's own code: the generator's request, a handler wrapper
// around the gateway and each daemon, and a RoundTripper under the
// gateway's peer client. Spans of one request share the X-Sketch-Trace
// ID the stack already propagates; a span's parent is the span of the
// layer above with the same ID whose interval contains it.
type span struct {
	Trace string `json:"trace"`
	Layer string `json:"layer"`         // gen, gw, d<i>, or gw>host for a peer call
	Op    string `json:"op"`            // method and path
	Start int64  `json:"start_unix_ns"` // wall clock, shared by both processes
	End   int64  `json:"end_unix_ns"`
	Bytes int64  `json:"bytes,omitempty"` // request body size
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing and wraps nothing.
type tracer struct {
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) record(trace, layer, op string, start, end time.Time, n int64) {
	s := span{Trace: trace, Layer: layer, Op: op, Start: start.UnixNano(), End: end.UnixNano(), Bytes: n}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// newID mints a generator trace ID in the stack's 32-hex format.
func (t *tracer) newID() string {
	return fmt.Sprintf("%016x%016x", uint64(t.t0.UnixNano()), t.ids.Add(1))
}

// handler wraps h so each request it serves is recorded as a layer span.
func (t *tracer) handler(layer string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		t.record(r.Header.Get(telemetry.TraceHeader), layer, r.Method+" "+r.URL.Path, start, time.Now(), r.ContentLength)
	})
}

// peerClient returns the gateway's peer client: nil (the gateway's own
// default) when untraced, else the same tuning as that default under a
// timing RoundTripper.
func (t *tracer) peerClient(peers int) *http.Client {
	if t == nil {
		return nil
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = max(8, 2*peers)
	tr.MaxIdleConns = max(tr.MaxIdleConns, 2*peers+8)
	return &http.Client{Transport: &timingRT{t: t, base: tr}}
}

// timingRT records each gateway→peer call from send until its response
// body is closed.
type timingRT struct {
	t    *tracer
	base http.RoundTripper
}

func (rt *timingRT) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := rt.base.RoundTrip(req)
	layer, op := "gw>"+req.URL.Host, req.Method+" "+req.URL.Path
	trace := req.Header.Get(telemetry.TraceHeader)
	if err != nil {
		rt.t.record(trace, layer, op, start, time.Now(), req.ContentLength)
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		rt.t.record(trace, layer, op, start, time.Now(), req.ContentLength)
	}}
	return resp, nil
}

type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// dump writes every span as one JSON line to path.
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rollup turns the spans into per-layer metrics. Self time of a gateway
// span is its duration minus the part of it that its peer-call children
// cover. elapsed is the traced run's wall time, the base of the per-second
// rates.
func (t *tracer) rollup(m *metrics, elapsed time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[string][]span{} // peer calls by trace ID
	for _, s := range t.spans {
		if strings.HasPrefix(s.Layer, "gw>") && s.Trace != "" {
			children[s.Trace] = append(children[s.Trace], s)
		}
	}
	var (
		gwIngestSelf, gwQuery, fwd, dIngest, dQuery, dSketch samples
		routedPts, forwardedPts                              int64
		peerCallsInQueries, refreshes, watches               int
	)
	for _, s := range t.spans {
		switch {
		case s.Layer == "gw" && s.Op == "POST /ingest":
			gwIngestSelf.add(float64(selfTime(s, children[s.Trace]).Microseconds()))
			routedPts += s.Bytes / ptBytes
		case s.Layer == "gw" && s.Op == "GET /query":
			gwQuery.add(float64(s.dur().Microseconds()))
			for _, c := range children[s.Trace] {
				if c.Start >= s.Start && c.End <= s.End {
					peerCallsInQueries++
				}
			}
		case strings.HasPrefix(s.Layer, "gw>") && s.Op == "POST /ingest":
			fwd.add(float64(s.dur().Microseconds()))
			forwardedPts += s.Bytes / ptBytes
		case strings.HasPrefix(s.Layer, "gw>") && s.Op == "GET /sketch":
			refreshes++
		case strings.HasPrefix(s.Layer, "gw>") && s.Op == "GET /watch":
			watches++
		case strings.HasPrefix(s.Layer, "d") && s.Op == "POST /ingest":
			dIngest.add(float64(s.dur().Microseconds()))
		case strings.HasPrefix(s.Layer, "d") && s.Op == "GET /query":
			dQuery.add(float64(s.dur().Microseconds()))
		case strings.HasPrefix(s.Layer, "d") && s.Op == "GET /sketch":
			dSketch.add(float64(s.dur().Microseconds()) / 1000)
		}
	}
	m.put("server.ingest_us", dIngest.mean(), "us", dIngest.n())
	m.put("server.query_us", dQuery.mean(), "us", dQuery.n())
	m.put("server.sketch_export_ms", dSketch.mean(), "ms", dSketch.n())
	m.put("cluster.ingest_self_us", gwIngestSelf.mean(), "us", gwIngestSelf.n())
	m.put("cluster.forward_us", fwd.mean(), "us", fwd.n())
	m.put("cluster.fanout_pts", ratio(float64(forwardedPts), float64(routedPts)), "pts/pt", fwd.n())
	m.put("cluster.query_us", gwQuery.mean(), "us", gwQuery.n())
	m.put("cluster.peer_calls_per_query", ratio(float64(peerCallsInQueries), float64(gwQuery.n())), "count", gwQuery.n())
	m.put("cluster.refresh_per_s", float64(refreshes)/elapsed.Seconds(), "1/s", refreshes)
	m.put("cluster.watch_per_s", float64(watches)/elapsed.Seconds(), "1/s", watches)
}

// selfTime is s's duration minus the union of its children's intervals
// clipped to s.
func selfTime(s span, kids []span) time.Duration {
	var iv [][2]int64
	for _, c := range kids {
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	covered, end := int64(0), s.Start
	for _, v := range iv {
		lo := max(v[0], end)
		if v[1] > lo {
			covered += v[1] - lo
			end = v[1]
		}
	}
	return s.dur() - time.Duration(covered)
}

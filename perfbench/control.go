package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"time"
)

// The benchmark runs as two processes. The serving process, which the
// command starts, holds the system under test. It re-executes itself as
// the generator process, which holds the inputs, sends all traffic and
// checks every answer, so the generator's pacer competes with the stack
// only through the OS scheduler, not for the stack's Go scheduler. The
// generator drives the stack's life cycle through the control API below,
// served by the benchmark on its own loopback port:
//
//	POST /setup?trace=0|1  build the stack from the checkpoints; its URL
//	POST /drain            drain every daemon; points folded since restore
//	POST /memstats         the serving process's allocation counters
//	POST /heap             settle, force a GC; the live heap in MiB
//	POST /report?seconds=  per-layer metrics of the traced stack
//	POST /stop             stop the stack
type ctlServer struct {
	w     *workload
	seed  uint64
	ckpts [][]byte

	mu sync.Mutex // serializes control calls
	st *stack
	tr *tracer
}

// setupReply answers POST /setup.
type setupReply struct {
	URL string `json:"url"`
}

// memReply answers POST /memstats.
type memReply struct {
	Mallocs    uint64 `json:"mallocs"`
	TotalAlloc uint64 `json:"total_alloc"`
}

// wireMetric carries one metric between the processes.
type wireMetric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

func toWire(m *metrics) []wireMetric {
	out := make([]wireMetric, len(m.list))
	for i, x := range m.list {
		out[i] = wireMetric{x.name, x.value, x.unit, x.n}
	}
	return out
}

func fromWire(ws []wireMetric, m *metrics) {
	for _, x := range ws {
		m.put(x.Name, x.Value, x.Unit, x.N)
	}
}

func (c *ctlServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r.URL.Path != "/setup" && c.st == nil {
		http.Error(w, "no stack is running", http.StatusConflict)
		return
	}
	var (
		out any
		err error
	)
	switch r.URL.Path {
	case "/setup":
		c.stop()
		if r.URL.Query().Get("trace") == "1" {
			c.tr = newTracer()
		}
		c.st, err = startStack(c.w, c.ckpts, c.tr)
		if err == nil {
			out = setupReply{c.st.url}
		}
	case "/drain":
		out = c.st.drain()
	case "/memstats":
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		out = memReply{ms.Mallocs, ms.TotalAlloc}
	case "/heap":
		c.st.quiesce()
		var heap samples
		for range 3 {
			heap.add(liveHeapMiB())
			time.Sleep(20 * time.Millisecond)
		}
		out = wireMetric{"live_heap_mb", heap.median(), "MiB", heap.n()}
	case "/report":
		var secs float64
		if secs, err = strconv.ParseFloat(r.URL.Query().Get("seconds"), 64); err == nil {
			out, err = c.report(time.Duration(secs * float64(time.Second)))
		}
	case "/stop":
		c.stop()
		out = true
	default:
		http.NotFound(w, r)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	json.NewEncoder(w).Encode(out)
}

func (c *ctlServer) stop() {
	if c.st != nil {
		c.st.stop()
		c.st, c.tr = nil, nil
	}
}

// report rolls the traced stack's spans and counters up into per-layer
// metrics, measures the sketch wire path on the daemons' final exports,
// and writes the spans to .bench_build/spans/.
func (c *ctlServer) report(elapsed time.Duration) ([]wireMetric, error) {
	if c.tr == nil {
		return nil, fmt.Errorf("the running stack is not traced")
	}
	m := &metrics{}
	var hits, misses int64
	for _, e := range c.st.engines {
		st := e.Stats()
		hits += st.SnapshotHits
		misses += st.SnapshotMisses
	}
	m.put("engine.snapshot_hit_frac", ratio(float64(hits), float64(hits+misses)), "fraction", int(hits+misses))
	var blobs [][]byte
	for _, u := range c.st.daemonURLs {
		resp, err := http.Get(u + "/sketch")
		if err != nil {
			return nil, fmt.Errorf("export %s: %w", u, err)
		}
		blob, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, blob)
		}
		if err != nil {
			return nil, fmt.Errorf("export %s: %w", u, err)
		}
		blobs = append(blobs, blob)
	}
	if err := exportCost(blobs, m); err != nil {
		return nil, err
	}
	var restore samples
	for _, r := range c.st.restore {
		restore.add(ms(r))
	}
	m.put("setup.restore_ms", restore.median(), "ms", restore.n())
	c.tr.rollup(m, elapsed)
	if err := c.tr.dump(spanPath(c.w, c.seed, "serve")); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return toWire(m), nil
}

// ctlClient is the generator's side of the control API.
type ctlClient struct {
	base string
	hc   *http.Client
}

// call POSTs to the control API and decodes the reply into out.
func (c *ctlClient) call(path string, q url.Values, out any) error {
	u := c.base + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	resp, err := c.hc.Post(u, "", nil)
	if err != nil {
		return fmt.Errorf("control %s: %w", path, err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("control %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("control %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(blob))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(blob, out)
}

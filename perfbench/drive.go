package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/pointio"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/pkg/sketch"
)

// estimateFactor bounds the infinite-window |Sacc|·R estimate against
// the true distinct count. Once R > 1 the accept set holds between half
// and all of κ0·K·log₂m = 4·8·21 = 672 groups, so one standard deviation
// of the estimate is at most 1/√336 ≈ 5.5%; a factor of 1.5 is about
// seven of them.
const estimateFactor = 1.5

// client is the load generator's HTTP side: one transport holding at
// most conns connections to the target.
type client struct {
	hc *http.Client
	tr *tracer
}

func newClient(conns int, tr *tracer) *client {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxConnsPerHost = conns
	t.MaxIdleConnsPerHost = conns
	t.DisableCompression = true
	return &client{hc: &http.Client{Transport: t, Timeout: 30 * time.Second}, tr: tr}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the status, body and response headers.
func (c *client) do(ctx context.Context, method, url string, body []byte, hdr http.Header) (int, []byte, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	var id string
	start := time.Now()
	if c.tr != nil {
		id = c.tr.newID()
		req.Header.Set(telemetry.TraceHeader, id)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if c.tr != nil {
		c.tr.record(id, "gen", method+" "+req.URL.Path, start, time.Now(), int64(len(body)))
	}
	return resp.StatusCode, blob, resp.Header, err
}

// progress tracks which batches a stack has been sent and has
// acknowledged; the oracle bounds every answer by it.
type progress struct {
	next     atomic.Int64 // batches claimed for sending
	ackedPts atomic.Int64 // points acknowledged since restore
	mu       sync.Mutex
	acked    []bool
	wm       int // batches [0, wm) are all acknowledged
	maxAcked int // highest acknowledged batch + 1
}

func newProgress(in *inputs, warm int) *progress {
	p := &progress{acked: make([]bool, in.batches), wm: warm, maxAcked: warm}
	p.next.Store(int64(warm))
	return p
}

// claim returns the next batch to send, or false past limit.
func (p *progress) claim(limit int) (int, bool) {
	for {
		b := p.next.Load()
		if b >= int64(limit) {
			return 0, false
		}
		if p.next.CompareAndSwap(b, b+1) {
			return int(b), true
		}
	}
}

func (p *progress) ack(b, pts int) {
	p.mu.Lock()
	p.acked[b] = true
	for p.wm < len(p.acked) && p.acked[p.wm] {
		p.wm++
	}
	p.maxAcked = max(p.maxAcked, b+1)
	p.mu.Unlock()
	p.ackedPts.Add(int64(pts))
}

func (p *progress) view() (wm, maxAcked int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.wm, p.maxAcked
}

// tally collects one phase's requests and latencies.
type tally struct {
	mu          sync.Mutex
	attempted   int64
	failed      int64
	ackedPts    int64
	ingestMs    latencies
	queryMs     latencies
	lagMs       samples
	stalenessMs samples
	estRatio    samples
	firstErr    string
}

func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	t.failed++
	if t.firstErr == "" {
		t.firstErr = fmt.Sprintf(format, args...)
	}
	t.mu.Unlock()
}

// unsent counts n requests the phase had to send but never did as
// attempted and failed.
func (t *tally) unsent(n int, why string) {
	if n <= 0 {
		return
	}
	t.mu.Lock()
	t.attempted += int64(n)
	t.failed += int64(n)
	if t.firstErr == "" {
		t.firstErr = fmt.Sprintf("%s with %d requests unsent", why, n)
	}
	t.mu.Unlock()
}

// merge folds o into t.
func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.ackedPts += o.ackedPts
	t.ingestMs = append(t.ingestMs, o.ingestMs...)
	t.queryMs = append(t.queryMs, o.queryMs...)
	t.lagMs = append(t.lagMs, o.lagMs...)
	t.stalenessMs = append(t.stalenessMs, o.stalenessMs...)
	t.estRatio = append(t.estRatio, o.estRatio...)
	if t.firstErr == "" {
		t.firstErr = o.firstErr
	}
}

// driver sends one workload's pre-generated traffic at one stack.
type driver struct {
	w    *workload
	in   *inputs
	url  string // the stack's entry point: the gateway or the lone daemon
	ctl  *ctlClient
	cl   *client
	prog *progress
}

// ingest sends batch b and reports whether it was acknowledged in full.
func (d *driver) ingest(ctx context.Context, t *tally, b int) bool {
	hdr := http.Header{"Content-Type": {pointio.BinaryContentType}}
	if d.w.window > 0 {
		hdr.Set(server.StampHeader, strconv.FormatInt(stamp(b), 10))
	}
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
	code, blob, _, err := d.cl.do(ctx, http.MethodPost, d.url+"/ingest", d.in.body(b), hdr)
	if err != nil {
		t.fail("ingest batch %d: %v", b, err)
		return false
	}
	var ir server.IngestResponse
	if code != http.StatusOK {
		t.fail("ingest batch %d: HTTP %d: %s", b, code, blob)
		return false
	}
	if err := json.Unmarshal(blob, &ir); err != nil || ir.Ingested != d.w.batch {
		t.fail("ingest batch %d: acknowledged %d of %d points (%v)", b, ir.Ingested, d.w.batch, err)
		return false
	}
	d.prog.ack(b, d.w.batch)
	t.mu.Lock()
	t.ackedPts += int64(d.w.batch)
	t.mu.Unlock()
	return true
}

// query sends one GET /query and checks the answer with the oracle.
func (d *driver) query(ctx context.Context, t *tally) bool {
	url := d.url + "/query"
	if d.w.window == 0 {
		url += "?k=" + strconv.Itoa(queryK)
	}
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
	wm, maxAcked := d.prog.view()
	code, blob, hdr, err := d.cl.do(ctx, http.MethodGet, url, nil, nil)
	sent := int(d.prog.next.Load())
	if err != nil {
		t.fail("query: %v", err)
		return false
	}
	if code != http.StatusOK {
		t.fail("query: HTTP %d: %s", code, blob)
		return false
	}
	var q cluster.QueryResponse
	if err := json.Unmarshal(blob, &q); err != nil {
		t.fail("query: %v", err)
		return false
	}
	ratio, err := d.check(q, wm, maxAcked, sent)
	if err != nil {
		t.fail("query answer incorrect: %v: %s", err, blob)
		return false
	}
	t.mu.Lock()
	if ratio > 0 {
		t.estRatio.add(ratio)
	}
	if v := hdr.Get(cluster.StalenessHeader); v != "" {
		if ms, err := strconv.ParseFloat(v, 64); err == nil {
			t.stalenessMs.add(ms)
		}
	}
	t.mu.Unlock()
	return true
}

// check is the correctness oracle for one query answer, given that
// batches [0, wm) and batch maxAcked-1 were acknowledged before it was
// sent and no batch past sent had been claimed when it came back.
//   - Every sample lies within α of a generated group that was sent —
//     for windowed workloads, one with a point stamped inside the window
//     ending at the server's clock, which is at least stamp(maxAcked-1).
//   - A gateway answers partial: false with every peer contributing.
//   - The infinite-window |Sacc|·R estimate lies within estimateFactor of
//     the true distinct count, which is at least that of batches [0, wm)
//     (for a gateway, whose push fold may serve a bounded-stale view, that
//     of the restored warm-up prefix) and at most that of [0, sent).
//     Window sketches carry no estimate and must answer NoEstimate.
//
// It returns estimate ÷ the interval's nearest true count (0 when the
// sketch carries no estimate).
func (d *driver) check(q cluster.QueryResponse, wm, maxAcked, sent int) (float64, error) {
	in, w := d.in, d.w
	if w.peers > 0 && (q.Partial || q.PeersOK != w.peers) {
		return 0, fmt.Errorf("partial answer: partial=%v peers_ok=%d of %d", q.Partial, q.PeersOK, w.peers)
	}
	pts := q.Samples
	if len(pts) == 0 {
		pts = [][]float64{q.Sample}
	}
	if w.window == 0 && len(q.Samples) != queryK {
		return 0, fmt.Errorf("%d samples, want %d", len(q.Samples), queryK)
	}
	for _, p := range pts {
		id, ok := in.groupOf(p)
		if !ok {
			return 0, fmt.Errorf("sample %v lies within α of no generated group", p)
		}
		if w.window == 0 {
			if int(in.firstBatch[id]) >= sent {
				return 0, fmt.Errorf("sample %v is group %d, first sent in batch %d ≥ %d", p, id, in.firstBatch[id], sent)
			}
		} else if !in.liveIn(id, maxAcked-int(w.window), sent) {
			return 0, fmt.Errorf("sample %v is group %d, not live in the window ending at stamp ≥ %d", p, id, maxAcked)
		}
	}
	if w.window > 0 {
		if q.Estimate != sketch.NoEstimate {
			return 0, fmt.Errorf("window answer carries estimate %g", q.Estimate)
		}
		return 0, nil
	}
	lo := wm
	if w.peers > 0 {
		lo = w.warmBatches
	}
	tlo, thi := float64(in.distinctBefore[lo]), float64(in.distinctBefore[sent])
	if q.Estimate < tlo/estimateFactor || q.Estimate > thi*estimateFactor {
		return 0, fmt.Errorf("estimate %g outside [%g/%g, %g·%g]", q.Estimate, tlo, estimateFactor, thi, estimateFactor)
	}
	return q.Estimate / min(max(q.Estimate, tlo), thi), nil
}

// firstCorrectQuery retries GET /query until the oracle accepts an
// answer, for at most 10s.
func (d *driver) firstCorrectQuery(ctx context.Context) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		var t tally
		if d.query(ctx, &t) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no correct answer within 10s: %s", t.firstErr)
		}
		time.Sleep(time.Millisecond)
	}
}

// reconcile drains the stack and checks that every point acknowledged
// since restore — times the replication factor — was folded into a
// shard sketch.
func (d *driver) reconcile(t *tally) {
	var folded int64
	if err := d.ctl.call("/drain", nil, &folded); err != nil {
		t.fail("%v", err)
		return
	}
	acked := d.prog.ackedPts.Load()
	if want := acked * int64(d.w.replicasOr1()); folded != want {
		t.fail("acks do not reconcile: %d points acknowledged (×%d replicas = %d) but %d folded after drain",
			acked, d.w.replicasOr1(), want, folded)
	}
}

// closedLoop sends the next n batches from conns connections, each
// sending its next request when the previous one returns. Every
// queryEvery-th batch is followed by a query on the same connection. It
// returns the slice's tally and the wall time from the first send until
// every acknowledged point was folded.
func (dr *driver) closedLoop(ctx context.Context, conns, n int) (*tally, time.Duration) {
	t := &tally{}
	limit := int(dr.prog.next.Load()) + n
	start := time.Now()
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				b, ok := dr.prog.claim(limit)
				if !ok {
					return
				}
				dr.ingest(ctx, t, b)
				if (b+1)%dr.w.queryEvery == 0 {
					dr.query(ctx, t)
				}
			}
		}()
	}
	wg.Wait()
	t.unsent(limit-int(dr.prog.next.Load()), "closed loop timed out")
	dr.reconcile(t)
	return t, time.Since(start)
}

// job is one scheduled open-loop request.
type job struct {
	at    time.Time
	query bool
}

// openLoop sends the next n batches at rate points/s, and one query
// half-way between every queryEvery-th batch and the next, on a schedule
// that does not wait for answers. Each request's latency is timed from
// its scheduled send; the pacer's own lateness is recorded as lag.
// Requests still unsent when ctx ends count as failed.
func (dr *driver) openLoop(ctx context.Context, conns, n int, rate float64) *tally {
	t := &tally{}
	interval := time.Duration(float64(dr.w.batch) / rate * float64(time.Second))
	limit := int(dr.prog.next.Load()) + n
	jobs := make(chan job, n+n/dr.w.queryEvery+1) // the whole schedule: the pacer never blocks
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if ctx.Err() != nil {
					t.unsent(1, "open loop timed out")
					continue
				}
				if j.query {
					if dr.query(ctx, t) {
						t.mu.Lock()
						t.queryMs = append(t.queryMs, latency{j.at, ms(time.Since(j.at))})
						t.mu.Unlock()
					}
					continue
				}
				b, ok := dr.prog.claim(limit)
				if !ok {
					t.fail("open loop ran out of generated batches")
					continue
				}
				if dr.ingest(ctx, t, b) {
					t.mu.Lock()
					t.ingestMs = append(t.ingestMs, latency{j.at, ms(time.Since(j.at))})
					t.mu.Unlock()
				}
			}
		}()
	}
	start := time.Now()
	emit := func(at time.Time, query bool) {
		sleepUntil(at)
		t.lagMs.add(ms(time.Since(at)))
		jobs <- job{at: at, query: query}
	}
	for k := range n {
		at := start.Add(time.Duration(k) * interval)
		emit(at, false)
		if (k+1)%dr.w.queryEvery == 0 {
			emit(at.Add(interval/2), true)
		}
	}
	close(jobs)
	wg.Wait()
	dr.reconcile(t)
	return t
}

// sleepUntil waits for at with nanosleep(2), which blocks only the
// pacer's thread: the runtime's timers fire up to a millisecond late on
// some kernels, and that lateness would add to every open-loop latency.
func sleepUntil(at time.Time) {
	for d := time.Until(at); d > 0; d = time.Until(at) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/pointio"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// forwardChunkBytes caps one forwarded packed-binary sub-batch body —
// half the peers' default 64 MiB MaxBodyBytes, so an accepted gateway
// ingest can always be forwarded regardless of how much the text→binary
// re-encoding expanded it.
const forwardChunkBytes = 32 << 20

// forwardBufPool recycles the packed-binary bodies of routed ingest
// sub-batches: a gateway under ingest load would otherwise allocate one
// body per peer per request, each up to forwardChunkBytes.
var forwardBufPool = sync.Pool{New: func() any { b := []byte(nil); return &b }}

// getForwardBuf takes a cleared forward-body buffer from the pool.
//
//sketch:hotpath
func getForwardBuf() []byte { return (*forwardBufPool.Get().(*[]byte))[:0] }

// putForwardBuf returns a forward-body buffer to the pool.
func putForwardBuf(b []byte) {
	b = b[:0]
	forwardBufPool.Put(&b)
}

// handleIngest routes a batch across the fleet: each point is assigned to
// the Replicas owners of its routing cell (placement.Owners; at the
// default Replicas 1 that is the cell's single primary peer), and the
// per-peer sub-batches are forwarded in parallel in the packed-binary
// format. The request succeeds as long as every point reached at least
// one live owner — fewer than Replicas distinct peers failed — and
// answers 502 otherwise; without replication that is any failure. With
// replication the sub-batches a failed owner missed are queued for
// hinted handoff. Either way, sub-batches already delivered stay
// delivered, and retrying the full batch is safe: re-ingested points are
// near-duplicates of themselves and collapse in the sketches.
func (g *Gateway) handleIngest(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	span, ctx := g.beginTrace(w, r)
	g.ingestRequests.Add(1)
	body := http.MaxBytesReader(w, r.Body, g.cfg.MaxBodyBytes)
	tp := time.Now()
	pts, err := pointio.ReadBatch(body, r.Header.Get("Content-Type"), g.cfg.Dim)
	telemetry.Observe(g.tel.parse, span, "parse", time.Since(tp))
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		server.WriteError(w, status, err)
		g.finishRequest(span, g.tel.reqIngest, telemetry.SlowEntry{Path: "/ingest", Status: status}, t0)
		return
	}
	tr := time.Now()
	buckets := make([][]geom.Point, len(g.peers))
	var ob [engine.MaxReplicas]int
	for _, p := range pts {
		for _, i := range g.placement.Owners(g.cfg.Router.Route(p), ob[:0]) {
			buckets[i] = append(buckets[i], p)
		}
	}
	g.replicaFanout.Add(int64((g.cfg.Replicas - 1) * len(pts)))
	telemetry.Observe(g.tel.route, span, "route", time.Since(tr))
	// Windowed peers stamp ingest batches: forward the client's explicit
	// stamp so every routed sub-batch lands with the same timestamp it
	// would have carried against a single daemon (without it, each peer
	// stamps with its own clock — fine for wall-clock windows, wrong for
	// logical stamps).
	var stampHdr http.Header
	if v := r.Header.Get(server.StampHeader); v != "" {
		stampHdr = http.Header{server.StampHeader: []string{v}}
	}

	// errs[i] is peer i's first forward failure; each goroutine writes
	// only its own slot.
	errs := make([]error, len(g.peers))
	var wg sync.WaitGroup
	tf := time.Now()
	for i, bucket := range buckets {
		if len(bucket) == 0 {
			continue
		}
		p := g.peers[i]
		if !p.admit(tf, g.cfg.DownCooldown) {
			errs[i] = g.forwardBucket(ctx, i, bucket, stampHdr,
				fmt.Errorf("%s: down (circuit open)", p.url))
			continue
		}
		wg.Add(1)
		go func(i int, bucket []geom.Point) {
			defer wg.Done()
			errs[i] = g.forwardBucket(ctx, i, bucket, stampHdr, nil)
		}(i, bucket)
	}
	wg.Wait()
	telemetry.Observe(g.tel.forward, span, "forward", time.Since(tf))
	var failed []string
	for _, err := range errs {
		if err != nil {
			failed = append(failed, err.Error())
		}
	}
	// Every point went to Replicas distinct owners: while fewer than
	// Replicas distinct peers failed, each point reached at least one live
	// owner — the ingest is durable, any missed copies sit in the handoff
	// queues, and the request succeeds.
	if len(failed) >= g.cfg.Replicas {
		server.WriteError(w, http.StatusBadGateway,
			fmt.Errorf("cluster: ingest failed on %d peer(s) — retrying the whole batch is safe (duplicates collapse): %s",
				len(failed), strings.Join(failed, "; ")))
		g.finishRequest(span, g.tel.reqIngest, telemetry.SlowEntry{Path: "/ingest", Status: http.StatusBadGateway}, t0)
		return
	}
	// TotalPoints is the gateway's cumulative routed count, not a sum of
	// the peers' per-batch totals: summing only the peers this batch
	// touched would make the "cumulative" number jump around with
	// routing. It is monotone per gateway, like a single daemon's counter
	// is monotone per daemon (peers ingesting directly are not included —
	// query a peer's /stats for its own view).
	server.WriteJSON(w, http.StatusOK, server.IngestResponse{
		Ingested:    len(pts),
		TotalPoints: g.pointsRouted.Load(),
	})
	g.finishRequest(span, g.tel.reqIngest, telemetry.SlowEntry{Path: "/ingest", Status: http.StatusOK}, t0)
}

// forwardBucket ships peer i's sub-batch in bounded chunks and returns
// the first failure: err when the peer was already known to be down,
// else the first chunk that failed. Chunks bound the body because a
// terse text body near the gateway's cap can expand several-fold when
// re-encoded as packed binary, so shipping a bucket whole could exceed
// the peer's own MaxBodyBytes deterministically. From the first failure
// on nothing more is sent; when handoff queues exist (Replicas > 1) the
// failed chunk and every later one are queued as hints instead.
func (g *Gateway) forwardBucket(ctx context.Context, i int, bucket []geom.Point, hdr http.Header, err error) error {
	maxPts := max(forwardChunkBytes/(8*g.cfg.Dim), 1)
	for len(bucket) > 0 {
		n := min(len(bucket), maxPts)
		chunk := bucket[:n]
		bucket = bucket[n:]
		var body []byte
		if err == nil {
			body = pointio.AppendBinaryBatch(getForwardBuf(), chunk)
			if err = g.forwardChunk(ctx, g.peers[i], body, hdr, n); err == nil {
				putForwardBuf(body)
				g.pointsRouted.Add(int64(n))
				continue
			}
			// The buffer is NOT recycled on failure: a timed-out attempt's
			// transport goroutine may still be reading it, and recycling
			// would hand those bytes to another request mid-write. Dropped
			// buffers are reclaimed by GC — which also makes the failed
			// body safe to park in the hint queue as is.
		}
		if g.handoff == nil {
			return err
		}
		if body == nil {
			body = pointio.AppendBinaryBatch(nil, chunk)
		}
		g.enqueueHint(i, body, hdr, n)
	}
	return err
}

// errShortAck marks a forward the peer answered but acknowledged with
// fewer points than were sent — a deterministic rejection, not an
// outage.
var errShortAck = errors.New("peer accepted fewer points than sent")

// forwardChunk POSTs one packed-binary /ingest body of n points to the
// peer and checks that the peer acknowledged all n.
func (g *Gateway) forwardChunk(ctx context.Context, p *peer, body []byte, hdr http.Header, n int) error {
	blob, _, _, err := g.do(ctx, p, http.MethodPost, "/ingest", pointio.BinaryContentType, body, hdr)
	if err != nil {
		return err
	}
	var ir server.IngestResponse
	if err := json.Unmarshal(blob, &ir); err != nil || ir.Ingested != n {
		return fmt.Errorf("%s: %w: %d of %d (%v)", p.url, errShortAck, ir.Ingested, n, err)
	}
	return nil
}

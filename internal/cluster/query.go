package cluster

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/pkg/sketch"
)

// errNoPeers means every peer failed: there is no live subset to degrade
// to, so the query fails under either policy.
var errNoPeers = errors.New("cluster: no live peers")

// errPartialRefused marks a partial fan-out refused under PartialFail.
var errPartialRefused = errors.New("cluster: partial result refused")

// federateStatus maps a federate error to its HTTP status: upstream
// failures (unreachable peers) are 502, anything else — a non-mergeable
// family, a merge rejected by mismatched peer options — is a gateway
// configuration or logic problem and answers 500, mirroring the
// single-daemon classification.
func federateStatus(err error) int {
	if errors.Is(err, errNoPeers) || errors.Is(err, errPartialRefused) {
		return http.StatusBadGateway
	}
	return http.StatusInternalServerError
}

// peerSnap is one peer's slot in the federated cache: the last envelope
// the peer served, its strong validator, and the deserialized sketch.
// The sketch is reused read-only across rounds (it is never the merge
// receiver), so a 304 from the peer costs zero deserializations and
// zero sketch allocations.
type peerSnap struct {
	etag     string
	blob     []byte
	sk       sketch.Sketch
	epoch    int64 // peer's ingest epoch (X-Sketch-Epoch); -1 when the peer serves none
	degraded bool  // peer (itself a gateway) flagged its fold partial
}

// partialHeader marks a /sketch export folded from a strict peer subset;
// stacked gateways propagate it upward instead of laundering a degraded
// fold into a seemingly complete one.
const partialHeader = "X-Sketch-Partial"

// fanout summarizes one scatter-gather round.
type fanout struct {
	ok       int
	replicas int      // replication factor the round ran under (0 and 1 mean unreplicated)
	failed   []string // base URLs that were down or failed
	degraded []string // base URLs that answered but flagged their own fold partial
}

// partial reports whether the fold may be missing data. With R-way
// replicated placement every routing cell is owned by R distinct peers,
// so as long as fewer than R peers are missing from the round the union
// of the live subset still contains every cell — folding several owners
// of one cell is a free no-op (sketch union is idempotent), and folding
// at least one is completeness. Only when R or more peers are missing
// can some cell have lost all its owners, and only then is the answer
// partial. Degraded peers (stacked gateways whose own fold was partial)
// always taint the fold: what they are missing is unknown.
func (f fanout) partial() bool {
	return len(f.degraded) > 0 || len(f.failed) >= max(f.replicas, 1)
}

// scatterResult is one peer's outcome in a refresh round.
type scatterResult struct {
	ok        bool
	validator string // cache-key part: the peer's ETag (or a nonce); "down" on failure
	epoch     int64  // peer's ingest epoch; -1 when down or not served
	degraded  bool
}

// maxAnswerCache bounds the per-k answer cache; past it the map is
// cleared rather than grown (distinct k values per epoch vector are
// normally a handful).
const maxAnswerCache = 64

// flight is one in-progress scatter round shared by concurrent queries.
type flight struct {
	done chan struct{}
	err  error
}

// refresh brings the federated cache up to date, deduplicating
// concurrent callers onto one scatter round: the first caller leads the
// network round, later ones wait for its outcome and then answer from
// the freshly installed cache. Callers must NOT hold cacheMu. The round
// is detached from the leader's request context (it outlives a client
// disconnect; per-attempt timeouts still bound it), so followers never
// inherit a stranger's cancellation.
//
// bg marks a background revalidation: it runs a round only while the
// fold is dirty. The check happens after winning the flight, when every
// earlier round has installed, so a round that already cleaned the fold
// (a query's synchronous refresh, say) is never repeated for nothing.
func (g *Gateway) refresh(ctx context.Context, bg bool) error {
	g.flightMu.Lock()
	if f := g.inflight; f != nil {
		g.flightMu.Unlock()
		select {
		case <-f.done:
			return f.err
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if bg {
		if !g.dirtyFold() {
			g.flightMu.Unlock()
			return nil
		}
		g.bgRefreshes.Add(1)
	}
	f := &flight{done: make(chan struct{})}
	g.inflight = f
	g.flightMu.Unlock()
	// telemetry.Detach, not context.WithoutCancel: the stdlib wrapper
	// costs one allocation per Value lookup, which the per-peer trace
	// propagation in attempt() would pay on every scatter fetch.
	f.err = g.scatter(telemetry.Detach(ctx))
	g.flightMu.Lock()
	g.inflight = nil
	g.flightMu.Unlock()
	close(f.done)
	return f.err
}

// scatter runs one fan-out round and installs the results. Only the
// flight leader runs it, which is what makes the lock-free peerSnaps
// access safe. Every live peer gets a GET /sketch — conditional
// (If-None-Match with the cached validator) when a snapshot of it is
// already cached, so a quiescent peer answers 304 and its cached
// deserialized sketch is reused with zero allocations. The merged union
// is then re-folded (under cacheMu) only when the vector of peer
// validators (ETags — i.e. ingest epochs — plus the down/degraded set)
// differs from the cached one; on a match the fold, and therefore every
// deserialization and merge, is skipped. The error is non-nil when no
// peer contributed, or when the round is partial under PartialFail —
// the cache is left untouched in both cases.
func (g *Gateway) scatter(ctx context.Context) error {
	// The generation read MUST precede the network round: an invalidation
	// that lands while the round is in flight may or may not be reflected
	// in the fetched snapshots, so stamping any later generation on
	// install could mark the cache clean past an unseen ingest.
	startGen := g.dirtyGen.Load()
	res := make([]scatterResult, len(g.peers))
	errs := make([]error, len(g.peers))
	now := time.Now()
	var wg sync.WaitGroup
	for i, p := range g.peers {
		res[i].epoch = -1
		if !p.admit(now, g.cfg.DownCooldown) {
			errs[i] = fmt.Errorf("cluster: peer %s is down (circuit open)", p.url)
			res[i].validator = "down"
			continue
		}
		wg.Add(1)
		go func(i int, p *peer) {
			defer wg.Done()
			// Distinct indices, and cacheMu is held by the caller: the
			// per-peer slots cannot be written concurrently.
			snap := &g.peerSnaps[i]
			var extra http.Header
			if snap.sk != nil && snap.etag != "" {
				extra = http.Header{"If-None-Match": []string{snap.etag}}
			}
			tFetch := time.Now()
			blob, hdr, status, err := g.do(ctx, p, http.MethodGet, "/sketch", "", nil, extra)
			telemetry.Observe(g.tel.fetch, nil, "", time.Since(tFetch))
			if err != nil {
				errs[i] = err
				res[i].validator = "down"
				return
			}
			if status == http.StatusNotModified {
				g.peerNotModified.Add(1)
				g.fedBytesSaved.Add(int64(len(snap.blob)))
				res[i] = scatterResult{ok: true, validator: snap.validator(), epoch: snap.epoch, degraded: snap.degraded}
				return
			}
			tDeser := time.Now()
			sk, err := sketch.Deserialize(blob)
			telemetry.Observe(g.tel.deserialize, nil, "", time.Since(tDeser))
			if err != nil {
				errs[i] = fmt.Errorf("cluster: peer %s sketch: %w", p.url, err)
				res[i].validator = "down"
				return
			}
			g.peerDeserializes.Add(1)
			etag := hdr.Get("ETag")
			*snap = peerSnap{
				etag:     etag,
				blob:     blob,
				sk:       sk,
				epoch:    peerEpoch(hdr),
				degraded: hdr.Get(partialHeader) == "true",
			}
			v := snap.validator()
			if etag == "" {
				// The peer serves no validator: this snapshot can never be
				// revalidated, so key it uniquely — a warm hit would risk
				// serving a stale fold.
				v = fmt.Sprintf("nocache-%d", g.nonce.Add(1))
			}
			res[i] = scatterResult{ok: true, validator: v, epoch: snap.epoch, degraded: snap.degraded}
		}(i, p)
	}
	wg.Wait()

	fo := fanout{replicas: g.cfg.Replicas}
	parts := make([]string, len(res))
	for i, r := range res {
		parts[i] = r.validator
		if !r.ok {
			fo.failed = append(fo.failed, g.peers[i].url)
			continue
		}
		fo.ok++
		if r.degraded {
			fo.degraded = append(fo.degraded, g.peers[i].url)
		}
	}
	if fo.ok == 0 {
		return fmt.Errorf("%w: all %d peers failed (first: %v)", errNoPeers, len(g.peers), errs[firstError(errs)])
	}
	if fo.partial() && g.cfg.Partial == PartialFail {
		return fmt.Errorf("%w under policy %q: %d unreachable, %d upstream-partial of %d peers: %s",
			errPartialRefused, PartialFail, len(fo.failed), len(fo.degraded), len(g.peers),
			strings.Join(append(append([]string(nil), fo.failed...), fo.degraded...), ", "))
	}
	key := strings.Join(parts, "|")
	epochs := make([]int64, len(res))
	for i, r := range res {
		epochs[i] = r.epoch
	}
	// The fold and install mutate the cache read by the answer phase of
	// the handlers — from here on the round holds cacheMu (in-memory
	// work only; the network round above ran without it).
	g.cacheMu.Lock()
	defer g.cacheMu.Unlock()
	if g.mergedValid && key == g.mergedKey {
		g.fedCacheHits.Add(1)
		g.markFresh(startGen, epochs)
		return nil
	}
	g.fedCacheMisses.Add(1)
	var merged sketch.Mergeable
	for i, r := range res {
		if !r.ok {
			continue
		}
		if merged == nil {
			// The cached per-peer sketches stay read-only across rounds, so
			// the fold receiver is a fresh copy deserialized from the first
			// contributor's cached envelope — one deserialization per
			// re-fold, zero network.
			tDeser := time.Now()
			recv, err := sketch.Deserialize(g.peerSnaps[i].blob)
			telemetry.Observe(g.tel.deserialize, nil, "", time.Since(tDeser))
			if err != nil {
				return fmt.Errorf("cluster: peer %s sketch: %w", g.peers[i].url, err)
			}
			g.peerDeserializes.Add(1)
			m, ok := recv.(sketch.Mergeable)
			if !ok {
				return fmt.Errorf("cluster: %T is not mergeable; federation needs sketch.Mergeable", recv)
			}
			merged = m
			continue
		}
		tMerge := time.Now()
		err := merged.Merge(g.peerSnaps[i].sk)
		telemetry.Observe(g.tel.merge, nil, "", time.Since(tMerge))
		if err != nil {
			return fmt.Errorf("cluster: merging peer %s: %w", g.peers[i].url, err)
		}
		g.sketchMerges.Add(1)
	}
	g.merged, g.mergedFo, g.mergedKey = merged, fo, key
	g.mergedValid = true
	g.mergedBlob = nil
	g.mergedEpochs = epochs
	clear(g.answers)
	g.markFresh(startGen, epochs)
	return nil
}

// markFresh stamps a successfully installed (or revalidated) fold: the
// cache now reflects every invalidation up to startGen, each peer's
// fold epoch is the one the round fetched (so watchers ignore pushes the
// fold already covers), and the fold's age clock restarts.
func (g *Gateway) markFresh(startGen int64, epochs []int64) {
	for i, ep := range epochs {
		g.peers[i].foldEpoch.Store(ep)
	}
	g.lastRoundGen.Store(startGen)
	g.lastFresh.Store(time.Now().UnixNano())
}

// peerEpoch parses the peer's X-Sketch-Epoch response header; -1 when
// absent or malformed (e.g. a stacked gateway, which serves validator
// ETags but no single epoch).
func peerEpoch(hdr http.Header) int64 {
	v, err := strconv.ParseInt(hdr.Get(server.EpochHeader), 10, 64)
	if err != nil || v < 0 {
		return -1
	}
	return v
}

// validator is the peer's cache-key part: its ETag, suffixed when the
// peer's own fold was partial (an upstream gateway's ETag already covers
// its degradation, but the suffix keeps the key honest for any server).
func (s *peerSnap) validator() string {
	if s.degraded {
		return s.etag + "+partial"
	}
	return s.etag
}

// servedPartial counts a degraded answer that actually went out the door
// (the handlers call it after their last failure point, so refused or
// errored queries never inflate the partial_queries stat).
//
//sketch:hotpath
func (g *Gateway) servedPartial(fo fanout) {
	if fo.partial() {
		g.partialQueries.Add(1)
	}
}

// firstError returns the index of the first non-nil error (len(errs) if
// none — callers only use it when at least one exists).
func firstError(errs []error) int {
	for i, err := range errs {
		if err != nil {
			return i
		}
	}
	return len(errs)
}

func (g *Gateway) handleQuery(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	span, ctx := g.beginTrace(w, r)
	k, err := server.ParseK(r)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, err)
		g.finishRequest(span, g.tel.reqQuery, telemetry.SlowEntry{Path: "/query", Status: http.StatusBadRequest}, t0)
		return
	}
	g.queries.Add(1)
	if status := g.ensureFresh(w, ctx, span); status != 0 {
		g.finishRequest(span, g.tel.reqQuery, telemetry.SlowEntry{Path: "/query", Status: status}, t0)
		return
	}
	ta := time.Now()
	g.cacheMu.Lock()
	g.setPushHeadersLocked(w)
	fo := g.mergedFo
	resp := QueryResponse{
		Partial:       fo.partial(),
		Replicas:      g.cfg.Replicas,
		PeersTotal:    len(g.peers),
		PeersOK:       fo.ok,
		FailedPeers:   fo.failed,
		DegradedPeers: fo.degraded,
	}
	slowE := telemetry.SlowEntry{Path: "/query", Status: http.StatusOK, Partial: fo.partial()}
	g.slowContextLocked(span, &slowE)
	if cached, ok := g.answers[k]; ok {
		// Fully warm: same peer epochs, same k — the cached answer is
		// returned verbatim (samples included; they would merely
		// re-randomize over identical state).
		g.fedAnswerHits.Add(1)
		resp.QueryResponse = cached
	} else {
		// The answer itself is built by the same code as on a single
		// daemon, so the two tiers agree on response shape and status
		// codes.
		resp.QueryResponse, err = server.AnswerQuery(g.merged, k)
		if err != nil {
			g.cacheMu.Unlock()
			telemetry.Observe(g.tel.answer, span, "answer", time.Since(ta))
			server.WriteError(w, server.QueryErrorStatus(err), err)
			slowE.Status = server.QueryErrorStatus(err)
			g.finishRequest(span, g.tel.reqQuery, slowE, t0)
			return
		}
		if len(g.answers) >= maxAnswerCache {
			clear(g.answers)
		}
		g.answers[k] = resp.QueryResponse
	}
	g.servedPartial(fo)
	g.cacheMu.Unlock()
	telemetry.Observe(g.tel.answer, span, "answer", time.Since(ta))
	server.WriteJSON(w, http.StatusOK, resp)
	g.finishRequest(span, g.tel.reqQuery, slowE, t0)
}

// exportETag is the strong validator of the gateway's own /sketch
// export: the federated state is exactly the vector of peer validators,
// so its hash (plus the gateway's start time, guarding restarts) changes
// precisely when some peer's epoch, the down set, or the degraded set
// does. This is what lets gateways stack with end-to-end caching — a
// higher-tier gateway revalidates this one like any peer.
func (g *Gateway) exportETag() string {
	h := fnv.New64a()
	_, _ = h.Write([]byte(g.mergedKey))
	return fmt.Sprintf("\"gw-%x-%x\"", g.start.UnixNano(), h.Sum64())
}

// handleSketch re-exports the federated merged sketch in the versioned
// envelope, so gateways stack: a higher-tier gateway can treat this one
// as a single peer. The response carries a strong ETag derived from the
// peer-validator vector; a conditional GET that still matches answers
// 304, and the serialized union is cached until the vector moves. A
// partial fold is marked with X-Sketch-Partial: true (PartialDegrade)
// rather than served silently.
func (g *Gateway) handleSketch(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	span, ctx := g.beginTrace(w, r)
	g.queries.Add(1)
	if status := g.ensureFresh(w, ctx, span); status != 0 {
		g.finishRequest(span, g.tel.reqSketch, telemetry.SlowEntry{Path: "/sketch", Status: status}, t0)
		return
	}
	te := time.Now()
	g.cacheMu.Lock()
	g.setPushHeadersLocked(w)
	fo := g.mergedFo
	etag := g.exportETag()
	w.Header().Set("ETag", etag)
	if fo.partial() {
		w.Header().Set(partialHeader, "true")
	}
	slowE := telemetry.SlowEntry{Path: "/sketch", Status: http.StatusOK, Partial: fo.partial()}
	g.slowContextLocked(span, &slowE)
	if server.MatchETag(r, etag) {
		g.notModified.Add(1)
		g.cacheMu.Unlock()
		w.WriteHeader(http.StatusNotModified)
		slowE.Status = http.StatusNotModified
		g.finishRequest(span, g.tel.reqSketch, slowE, t0)
		return
	}
	if g.mergedBlob == nil {
		blob, err := g.merged.Serialize()
		if err != nil {
			g.cacheMu.Unlock()
			telemetry.Observe(g.tel.export, span, "export", time.Since(te))
			status := http.StatusInternalServerError
			if errors.Is(err, sketch.ErrNotSerializable) {
				status = http.StatusNotImplemented
			}
			server.WriteError(w, status, err)
			slowE.Status = status
			g.finishRequest(span, g.tel.reqSketch, slowE, t0)
			return
		}
		g.mergedBlob = blob
	}
	g.servedPartial(fo)
	blob := g.mergedBlob
	g.cacheMu.Unlock()
	telemetry.Observe(g.tel.export, span, "export", time.Since(te))
	server.WriteSketch(w, blob)
	g.finishRequest(span, g.tel.reqSketch, slowE, t0)
}

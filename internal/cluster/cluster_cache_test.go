package cluster

// Federated-cache e2e suite. The acceptance property of the cache: a
// fully-quiescent cluster answers repeated queries with zero peer-sketch
// deserializations and zero merges (proven by the /stats counters), and
// the refresh round an ingest on one peer triggers re-fetches exactly
// that peer's entry — the others revalidate with 304s.

import (
	"bytes"
	"io"
	"net/http"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/pointio"
)

// gwStats fetches the gateway's /stats.
func gwStats(t *testing.T, url string) StatsResponse {
	t.Helper()
	resp := mustGet(t, url+"/stats")
	return mustJSON[StatsResponse](t, resp, http.StatusOK)
}

// TestFederatedCacheWarmPath is the acceptance scenario: once the fold
// covers every peer's ingest, repeated queries reuse the merged union and
// the per-k answer, and perform zero deserializations and zero merges.
func TestFederatedCacheWarmPath(t *testing.T) {
	pts := stream(200, 10, 29)
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 13, StreamBound: len(pts) + 16, Kappa: 128}
	peers := newTestCluster(t, opts, 3, 2)
	_, ts := newTestGateway(t, opts, peers, nil)

	resp, err := http.Post(ts.URL+"/ingest", pointio.BinaryContentType,
		bytes.NewReader(pointio.AppendBinaryBatch(nil, pts)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	q1 := waitFolded(t, ts.URL, peers)
	if q1.Partial || q1.PeersOK != 3 || q1.Estimate != 200 {
		t.Fatalf("settled query %+v", q1)
	}
	cold := gwStats(t, ts.URL)

	for i := 0; i < 3; i++ {
		q := mustJSON[QueryResponse](t, mustGet(t, ts.URL+"/query"), http.StatusOK)
		if !reflect.DeepEqual(q, q1) {
			t.Fatalf("warm query %d differs from settled answer:\n%+v\nvs\n%+v", i, q, q1)
		}
	}
	warm := gwStats(t, ts.URL)
	if warm.PeerDeserializes != cold.PeerDeserializes || warm.SketchMerges != cold.SketchMerges {
		t.Fatalf("warm queries touched peer sketches: deserializes %d→%d merges %d→%d",
			cold.PeerDeserializes, warm.PeerDeserializes, cold.SketchMerges, warm.SketchMerges)
	}
	if got := warm.FedAnswerHits - cold.FedAnswerHits; got != 3 {
		t.Fatalf("warm answer hits grew by %d, want 3", got)
	}

	// A different ?k= is a merged-cache hit (no fold) but a fresh answer.
	qk := mustJSON[QueryResponse](t, mustGet(t, ts.URL+"/query?k=3"), http.StatusOK)
	if len(qk.Samples) != 3 {
		t.Fatalf("k=3 samples %v", qk.Samples)
	}
	afterK := gwStats(t, ts.URL)
	if afterK.SketchMerges != cold.SketchMerges || afterK.PeerDeserializes != cold.PeerDeserializes {
		t.Fatal("k variation re-folded the union")
	}
	if afterK.FedAnswerHits != warm.FedAnswerHits {
		t.Fatal("k=3 should not have hit the per-k answer cache")
	}
	// And the k answer itself is cached now.
	qk2 := mustJSON[QueryResponse](t, mustGet(t, ts.URL+"/query?k=3"), http.StatusOK)
	if !reflect.DeepEqual(qk2, qk) {
		t.Fatal("repeated k=3 answer differs")
	}
	if st := gwStats(t, ts.URL); st.FedAnswerHits != afterK.FedAnswerHits+1 {
		t.Fatal("repeated k=3 missed the answer cache")
	}
}

// TestFederatedCacheInvalidation ingests one point on one peer and
// requires the refresh round its push triggers to re-fetch exactly that
// peer's entry — the others answer 304 — and the updated estimate to be
// served (never the cached one).
func TestFederatedCacheInvalidation(t *testing.T) {
	pts := stream(100, 10, 31)
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 19, StreamBound: len(pts) + 16, Kappa: 128}
	peers := newTestCluster(t, opts, 3, 2)
	_, ts := newTestGateway(t, opts, peers, nil)

	resp, err := http.Post(ts.URL+"/ingest", pointio.BinaryContentType,
		bytes.NewReader(pointio.AppendBinaryBatch(nil, pts)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	if q1 := waitFolded(t, ts.URL, peers); q1.Estimate != 100 {
		t.Fatalf("estimate %g, want 100", q1.Estimate)
	}
	base := gwStats(t, ts.URL)

	// One brand-new group lands on peer 1 directly (bypassing the
	// gateway): its epoch moves, the others stay quiescent.
	peers[1].eng.Process(geom.Point{5000, 5000})

	if q2 := waitFolded(t, ts.URL, peers); q2.Estimate != 101 {
		t.Fatalf("post-ingest estimate %g, want 101 (stale cache?)", q2.Estimate)
	}
	st := gwStats(t, ts.URL)
	if got := st.PeerNotModified - base.PeerNotModified; got != 2 {
		t.Fatalf("%d peers revalidated with 304, want exactly 2 (only the quiescent ones)", got)
	}
	// The re-fold costs the changed peer's envelope plus the fold
	// receiver; the two 304 peers are reused as-is.
	if got := st.PeerDeserializes - base.PeerDeserializes; got != 2 {
		t.Fatalf("re-fold deserialized %d envelopes, want 2", got)
	}
	if got := st.SketchMerges - base.SketchMerges; got != 2 {
		t.Fatalf("re-fold performed %d merges, want 2", got)
	}
	if st.FedCacheMisses-base.FedCacheMisses != 1 {
		t.Fatal("epoch move did not miss the merged cache")
	}
}

// TestFederatedCachePartialKey pins that the merged cache key covers the
// failure set: a degraded round is cached under its own key (warm on
// repeat), and the cached full-fleet fold is never served for it.
func TestFederatedCachePartialKey(t *testing.T) {
	pts := stream(100, 10, 37)
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 23, StreamBound: len(pts) + 16, Kappa: 128}
	peers := newTestCluster(t, opts, 3, 2)
	var down atomic.Bool
	proxy := forwardProxy(t, peers[2].ts.URL, outage(&down))
	gw, ts := newTestGateway(t, opts, peers, func(c *Config) {
		c.Peers[2] = proxy.URL
		c.WatchTimeout = 100 * time.Millisecond // the watcher meets the outage quickly...
		c.MaxStale = time.Nanosecond            // ...and from then on every query refreshes synchronously
	})
	for _, p := range pts {
		peers[gw.placement.Primary(gw.cfg.Router.Route(p))].eng.Process(p)
	}

	full := waitFolded(t, ts.URL, peers)
	if full.Partial {
		t.Fatalf("healthy query %+v", full)
	}

	down.Store(true)
	var deg1 QueryResponse
	waitFor(t, 10*time.Second, "a degraded refresh round", func() bool {
		deg1, _ = getQuery(t, ts.URL)
		return deg1.Partial
	})
	if deg1.PeersOK != 2 || deg1.Estimate >= full.Estimate {
		t.Fatalf("degraded query %+v (full estimate %g)", deg1, full.Estimate)
	}
	base := gwStats(t, ts.URL)

	// Repeat while degraded: the query's refresh round sees the same
	// failure set over unchanged peers — a warm hit under the degraded
	// key, and the cached full-fleet answer is never served.
	deg2 := mustJSON[QueryResponse](t, mustGet(t, ts.URL+"/query"), http.StatusOK)
	if !reflect.DeepEqual(deg2, deg1) {
		t.Fatalf("repeated degraded answer differs: %+v vs %+v", deg2, deg1)
	}
	st := gwStats(t, ts.URL)
	if st.FedCacheHits != base.FedCacheHits+1 || st.SketchMerges != base.SketchMerges {
		t.Fatalf("degraded repeat not warm: hits %d→%d merges %d→%d",
			base.FedCacheHits, st.FedCacheHits, base.SketchMerges, st.SketchMerges)
	}
}

// TestGatewaySketchConditionalGet covers the gateway's own export cache
// token: /sketch serves a strong ETag, revalidates with 304 while the
// peer-epoch vector holds still, and moves the validator when any peer
// ingests — what lets gateways stack with end-to-end caching.
func TestGatewaySketchConditionalGet(t *testing.T) {
	pts := stream(50, 10, 41)
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 29, StreamBound: len(pts) + 16, Kappa: 128}
	peers := newTestCluster(t, opts, 2, 1)
	gw, ts := newTestGateway(t, opts, peers, nil)
	for _, p := range pts {
		peers[gw.placement.Primary(gw.cfg.Router.Route(p))].eng.Process(p)
	}
	waitFolded(t, ts.URL, peers)

	resp := mustGet(t, ts.URL+"/sketch")
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || len(blob) == 0 {
		t.Fatalf("sketch status %d err %v", resp.StatusCode, err)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("gateway /sketch served no ETag")
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/sketch", nil)
	req.Header.Set("If-None-Match", etag)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("gateway revalidation status %d, want 304", resp2.StatusCode)
	}
	if st := gwStats(t, ts.URL); st.NotModified != 1 {
		t.Fatalf("gateway not_modified = %d, want 1", st.NotModified)
	}

	// The ingest's push re-folds, which moves the validator.
	peers[0].eng.Process(geom.Point{9000, 9000})
	waitFor(t, 10*time.Second, "post-ingest gateway sketch under a moved ETag", func() bool {
		resp3, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp3.Body)
		resp3.Body.Close()
		return resp3.StatusCode == http.StatusOK && resp3.Header.Get("ETag") != etag
	})
}

// TestStackedGatewayCache runs a two-tier tree: the top gateway watches
// the lower one (a gateway has no /watch) by conditional-GET polling,
// which the lower one answers with 304s while nothing changes — the
// end-to-end caching stack — and an ingest at the bottom still reaches
// the top.
func TestStackedGatewayCache(t *testing.T) {
	pts := stream(50, 10, 43)
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 31, StreamBound: len(pts) + 16, Kappa: 128}
	peers := newTestCluster(t, opts, 2, 1)
	low, lowTS := newTestGateway(t, opts, peers, nil)
	for _, p := range pts {
		peers[low.placement.Primary(low.cfg.Router.Route(p))].eng.Process(p)
	}
	waitFolded(t, lowTS.URL, peers)
	_, topTS := newTestGateway(t, opts, nil, func(c *Config) {
		c.Peers = []string{lowTS.URL}
		c.PollInterval = 20 * time.Millisecond
	})

	q1 := mustJSON[QueryResponse](t, mustGet(t, topTS.URL+"/query"), http.StatusOK)
	if q1.Estimate != 50 || q1.Partial {
		t.Fatalf("stacked cold query %+v", q1)
	}
	waitFor(t, 10*time.Second, "top tier to revalidate the lower gateway by polling", func() bool {
		return gwStats(t, topTS.URL).WatchPollFallbacks == 1 && gwStats(t, lowTS.URL).NotModified >= 2
	})
	q2 := mustJSON[QueryResponse](t, mustGet(t, topTS.URL+"/query"), http.StatusOK)
	if !reflect.DeepEqual(q2, q1) {
		t.Fatal("stacked warm answer differs")
	}

	// An ingest at the bottom invalidates the whole stack.
	peers[1].eng.Process(geom.Point{7000, 7000})
	waitFor(t, 10*time.Second, "bottom ingest to reach the top tier", func() bool {
		q, _ := getQuery(t, topTS.URL)
		return q.Estimate == 51
	})
}

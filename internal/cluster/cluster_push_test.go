package cluster

// Push-propagation suite: serve-stale-while-revalidate end to end.
// The acceptance scenario (TestPushWarmPathServesWithoutFanout) pins the
// tentpole property — a quiescent push cluster answers queries with ZERO
// peer round trips on the request path — and the failure-mode tests pin
// the two hard edges: a peer dying mid-watch (breaker opens, stale fold
// still served, staleness bound forces an eventual sync refresh) and an
// epoch push landing during an in-flight background refresh (no lost
// invalidation: the final fold reflects the latest epoch).

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/server"
)

// waitFor polls cond every 20ms until it holds or the deadline expires.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out after %s waiting for %s", d, what)
}

// getQuery fetches /query and returns the decoded response plus the
// push headers.
func getQuery(t *testing.T, url string) (QueryResponse, http.Header) {
	t.Helper()
	resp := mustGet(t, url+"/query")
	hdr := resp.Header
	return mustJSON[QueryResponse](t, resp, http.StatusOK), hdr
}

// forwardProxy relays every request to upstream, preserving method,
// query string, headers, and status — unlike a bare http.Get relay it
// keeps ETags, epochs, and If-None-Match intact, so the gateway's cache
// protocol works through it. hook (optional) runs after the upstream
// response is fully read and before it is written back: tests use it to
// inject latency into specific paths or to fail them.
func forwardProxy(t *testing.T, upstream string, hook func(path string) (handled bool, w func(http.ResponseWriter))) *httptest.Server {
	t.Helper()
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hook != nil {
			if handled, writer := hook(r.URL.Path); handled {
				writer(w)
				return
			}
		}
		req, err := http.NewRequestWithContext(r.Context(), r.Method, upstream+r.URL.RequestURI(), r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		req.Header = r.Header.Clone()
		resp, err := http.DefaultTransport.RoundTrip(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		if hook != nil {
			if handled, writer := hook("post:" + r.URL.Path); handled && writer != nil {
				writer(w)
				return
			}
		}
		for k, vs := range resp.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		_, _ = w.Write(body)
	}))
	t.Cleanup(proxy.Close)
	return proxy
}

// outage is a forwardProxy hook that fails every request with 503 while
// down is set — including one forwarded before it was set (a parked
// /watch), which fails when its upstream answer comes back.
func outage(down *atomic.Bool) func(string) (bool, func(http.ResponseWriter)) {
	return func(string) (bool, func(http.ResponseWriter)) {
		if !down.Load() {
			return false, nil
		}
		return true, func(w http.ResponseWriter) {
			http.Error(w, `{"error":"injected outage"}`, http.StatusServiceUnavailable)
		}
	}
}

// TestPushWarmPathServesWithoutFanout is the acceptance scenario: a
// quiescent 4-peer cluster answers GET /query with zero peer round trips
// on the request path (stale_serves grows while peer_not_modified,
// deserializes, and merges stay flat), and an ingest is reflected in the
// fold within one watch push plus one background refresh — never a
// query-time fan-out.
func TestPushWarmPathServesWithoutFanout(t *testing.T) {
	pts := stream(100, 5, 61)
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 19, StreamBound: len(pts) + 16, Kappa: 128}
	peers := newTestCluster(t, opts, 4, 2)
	_, ts := newTestGateway(t, opts, peers, nil)

	// One batch straight into each peer's engine (gateway routing can be
	// arbitrarily skewed for a hand-built stream; the union does not
	// care which peer holds which group, and every peer must see an
	// epoch bump for the epoch-vector assertions below).
	chunk := len(pts) / len(peers)
	for i, p := range peers {
		p.eng.ProcessBatch(pts[i*chunk : (i+1)*chunk])
	}

	// Settle: the watchers push the ingest epochs, the background
	// refresher folds, and the cache goes continuously-validated —
	// observable as a served staleness of exactly 0 over a fold whose
	// epoch vector covers every peer's (single-batch) ingest.
	allFolded := func(hdr http.Header) bool {
		vec := strings.Split(hdr.Get(EpochVectorHeader), ",")
		if len(vec) != 4 {
			return false
		}
		for _, v := range vec {
			if ep, err := strconv.ParseInt(v, 10, 64); err != nil || ep < 1 {
				return false
			}
		}
		return true
	}
	// Each peer ingested exactly one batch, so exactly 4 pushes ever
	// happen; requiring all of them before a clean staleness-0 serve
	// guarantees no further push (and no further bg refresh) can land
	// once the warm phase starts.
	var baseline float64
	waitFor(t, 10*time.Second, "push cluster to settle after ingest", func() bool {
		s := gwStats(t, ts.URL)
		q, hdr := getQuery(t, ts.URL)
		baseline = q.Estimate
		return s.WatchPushes >= 4 && hdr.Get(StalenessHeader) == "0" && !q.Partial && allFolded(hdr)
	})
	if baseline < 90 || baseline > 110 {
		t.Fatalf("settled estimate %.1f implausible for 100 groups", baseline)
	}

	s0 := gwStats(t, ts.URL)
	if s0.WatchPushes < 1 || s0.BgRefreshes < 1 {
		t.Fatalf("settled stats show no push activity: pushes %d, bg refreshes %d",
			s0.WatchPushes, s0.BgRefreshes)
	}

	// Quiescent warm path: every query is a stale serve off the cached
	// fold; no conditional GET, no deserialization, no merge anywhere.
	const warmQueries = 20
	for i := 0; i < warmQueries; i++ {
		q, hdr := getQuery(t, ts.URL)
		if q.Estimate != baseline || q.Partial {
			t.Fatalf("warm query %d drifted: estimate %.1f (want %.1f), partial %v",
				i, q.Estimate, baseline, q.Partial)
		}
		if hdr.Get(StalenessHeader) != "0" {
			t.Fatalf("warm query %d staleness %q, want 0 (quiescent + healthy watchers)",
				i, hdr.Get(StalenessHeader))
		}
		if !allFolded(hdr) {
			t.Fatalf("warm query %d epoch vector %q, want 4 entries all ≥ 1",
				i, hdr.Get(EpochVectorHeader))
		}
	}
	s1 := gwStats(t, ts.URL)
	if got := s1.StaleServes - s0.StaleServes; got != warmQueries {
		t.Fatalf("stale_serves grew by %d, want %d (every warm query)", got, warmQueries)
	}
	if s1.PeerNotModified != s0.PeerNotModified {
		t.Fatalf("peer_not_modified grew %d → %d: warm queries hit the network",
			s0.PeerNotModified, s1.PeerNotModified)
	}
	if s1.PeerDeserializes != s0.PeerDeserializes || s1.SketchMerges != s0.SketchMerges {
		t.Fatalf("warm queries deserialized (%d → %d) or merged (%d → %d)",
			s0.PeerDeserializes, s1.PeerDeserializes, s0.SketchMerges, s1.SketchMerges)
	}
	if s1.SyncRefreshes != s0.SyncRefreshes {
		t.Fatalf("warm queries paid %d synchronous refreshes", s1.SyncRefreshes-s0.SyncRefreshes)
	}

	// One ingest on one peer: the epoch push and the background refresh
	// propagate it into the fold while every query stays a stale serve.
	peers[2].eng.Process(geom.Point{5000, 5000}) // far from every group: +1 distinct
	waitFor(t, 10*time.Second, "pushed ingest to reach the fold", func() bool {
		q, _ := getQuery(t, ts.URL)
		return q.Estimate > baseline+0.5
	})
	s2 := gwStats(t, ts.URL)
	if s2.WatchPushes <= s1.WatchPushes {
		t.Fatalf("watch_pushes flat at %d across an ingest", s2.WatchPushes)
	}
	if s2.BgRefreshes <= s1.BgRefreshes {
		t.Fatalf("bg_refreshes flat at %d across an ingest", s2.BgRefreshes)
	}
	if s2.SyncRefreshes != s1.SyncRefreshes {
		t.Fatalf("propagation cost %d query-time fan-outs, want none",
			s2.SyncRefreshes-s1.SyncRefreshes)
	}
}

// TestPushPeerDeathServesStale kills a peer mid-watch: the watcher's
// failures open the circuit breaker, yet queries keep serving the last
// complete fold (a stale merged sketch is a valid sketch) until the
// staleness bound forces a synchronous refresh, which degrades to the
// live subset. When the peer returns, the watcher recovers the fold to
// complete without any query paying a fan-out.
func TestPushPeerDeathServesStale(t *testing.T) {
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 23, StreamBound: 1 << 10, Kappa: 128}
	peers := newTestCluster(t, opts, 2, 1)
	peers[0].eng.Process(geom.Point{1, 1})
	peers[1].eng.Process(geom.Point{60, 60})

	var down atomic.Bool
	proxy := forwardProxy(t, peers[1].ts.URL, func(path string) (bool, func(http.ResponseWriter)) {
		if down.Load() && !strings.HasPrefix(path, "post:") {
			return true, func(w http.ResponseWriter) {
				http.Error(w, `{"error":"injected outage"}`, http.StatusServiceUnavailable)
			}
		}
		return false, nil
	})

	gw, ts := newTestGateway(t, opts, peers[:1], func(c *Config) {
		c.Peers = []string{peers[0].ts.URL, proxy.URL}
		// Wide enough that breaker-opening and the stale-complete check
		// below land comfortably inside the bound, short enough that the
		// bound is exceeded within the test.
		c.MaxStale = 5 * time.Second
		c.WatchTimeout = time.Second
		c.DownAfter = 2
		c.DownCooldown = 24 * time.Hour // stays open: isolates the serve-stale window
	})

	waitFor(t, 10*time.Second, "complete fold over both peers", func() bool {
		q, hdr := getQuery(t, ts.URL)
		return !q.Partial && q.Estimate == 2 && hdr.Get(StalenessHeader) == "0"
	})

	down.Store(true)
	// The watcher's reconnects fail and open the breaker without any
	// query traffic driving it.
	waitFor(t, 10*time.Second, "watch failures to open the breaker", func() bool {
		s := gwStats(t, ts.URL)
		return !s.Peers[1].Up && !s.Peers[1].WatchOK
	})

	// Inside the staleness bound: the full two-peer fold is still served,
	// complete, with zero request-path round trips.
	q, hdr := getQuery(t, ts.URL)
	if q.Partial || q.Estimate != 2 {
		t.Fatalf("within max-stale: got partial=%v estimate=%.1f, want the complete stale fold",
			q.Partial, q.Estimate)
	}
	if hdr.Get(StalenessHeader) == "0" {
		t.Fatal("staleness reported 0 with a watcher down")
	}

	// Past the bound: the next query pays a synchronous refresh and
	// degrades to the live subset.
	s0 := gwStats(t, ts.URL)
	waitFor(t, 15*time.Second, "staleness bound to force a degraded sync refresh", func() bool {
		q, _ := getQuery(t, ts.URL)
		return q.Partial && q.Estimate == 1
	})
	if s1 := gwStats(t, ts.URL); s1.SyncRefreshes <= s0.SyncRefreshes {
		t.Fatal("degradation happened without a synchronous refresh")
	}

	// Recovery: reopen the peer; the watcher (not a query) probes it,
	// marks the cache dirty, and the background refresher restores the
	// complete fold. The cooldown is hours long, so only watchOnce's
	// successful reconnect can close the breaker — via the half-open
	// probe admitted when its deadline was re-armed by admit.
	down.Store(false)
	gw.peers[1].downUntil.Store(time.Now().UnixNano()) // elapse the test's infinite cooldown
	waitFor(t, 10*time.Second, "recovered peer to rejoin the fold", func() bool {
		q, _ := getQuery(t, ts.URL)
		return !q.Partial && q.Estimate == 2
	})
}

// TestPushInvalidationDuringRefresh pins the no-lost-invalidation
// protocol: an epoch push that lands while a background refresh round is
// already in flight (its snapshot fetched before the second ingest) must
// leave the cache dirty, so a follow-up round folds the latest epoch —
// the final estimate reflects both ingests without any query fan-out.
func TestPushInvalidationDuringRefresh(t *testing.T) {
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 29, StreamBound: 1 << 10, Kappa: 128}
	peers := newTestCluster(t, opts, 1, 1)

	// /sketch responses are delayed AFTER the upstream read: the round's
	// snapshot is pinned to the pre-delay epoch while the gateway keeps
	// waiting, which is exactly the in-flight window the second ingest
	// must not be lost in.
	var delay atomic.Int64 // milliseconds
	proxy := forwardProxy(t, peers[0].ts.URL, func(path string) (bool, func(http.ResponseWriter)) {
		if path == "post:/sketch" {
			if d := delay.Load(); d > 0 {
				time.Sleep(time.Duration(d) * time.Millisecond)
			}
		}
		return false, nil
	})

	_, ts := newTestGateway(t, opts, []*testPeer{peers[0]}, func(c *Config) {
		c.Peers = []string{proxy.URL}
		c.WatchTimeout = time.Second
	})

	delay.Store(500)
	peers[0].eng.Process(geom.Point{1, 1})   // epoch 1: push → refresh round departs
	time.Sleep(150 * time.Millisecond)       // round is now parked in the proxy delay
	peers[0].eng.Process(geom.Point{80, 80}) // epoch 2: lands mid-flight

	waitFor(t, 10*time.Second, "fold to reflect the mid-flight ingest", func() bool {
		q, _ := getQuery(t, ts.URL)
		return q.Estimate == 2
	})
	if s := gwStats(t, ts.URL); s.BgRefreshes < 2 {
		t.Fatalf("bg_refreshes %d: the mid-flight invalidation needed a second round", s.BgRefreshes)
	}
}

// TestPushFallbackPolling covers peers predating /watch: the watcher
// gets 404, downgrades to conditional-GET polling, and invalidations
// still propagate — just at PollInterval latency instead of push.
func TestPushFallbackPolling(t *testing.T) {
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 31, StreamBound: 1 << 10, Kappa: 128}
	peers := newTestCluster(t, opts, 1, 1)
	peers[0].eng.Process(geom.Point{1, 1})

	proxy := forwardProxy(t, peers[0].ts.URL, func(path string) (bool, func(http.ResponseWriter)) {
		if path == "/watch" {
			return true, func(w http.ResponseWriter) { http.NotFound(w, nil) }
		}
		return false, nil
	})

	_, ts := newTestGateway(t, opts, []*testPeer{peers[0]}, func(c *Config) {
		c.Peers = []string{proxy.URL}
		c.PollInterval = 50 * time.Millisecond
	})

	waitFor(t, 10*time.Second, "watcher to fall back to polling and fold", func() bool {
		s := gwStats(t, ts.URL)
		q, _ := getQuery(t, ts.URL)
		return s.WatchPollFallbacks >= 1 && q.Estimate == 1
	})

	peers[0].eng.Process(geom.Point{70, 70})
	waitFor(t, 10*time.Second, "polled invalidation to reach the fold", func() bool {
		q, _ := getQuery(t, ts.URL)
		return q.Estimate == 2
	})
	if s := gwStats(t, ts.URL); s.WatchPushes != 0 {
		t.Fatalf("watch_pushes %d on a poll-only fleet", s.WatchPushes)
	}
}

// TestPushCoveredEpochStartsNoRound pins that a push the installed fold
// already covers is not an invalidation. A watcher's first poll answers
// at once with the peer's current epoch; when a query's synchronous
// refresh has folded that epoch first, treating the late push as news
// starts a redundant background round — one that can land after the
// fold looked settled, and after a peer has gone down.
func TestPushCoveredEpochStartsNoRound(t *testing.T) {
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 41, StreamBound: 1 << 10, Kappa: 128}
	peers := newTestCluster(t, opts, 1, 1)
	peers[0].eng.Process(geom.Point{1, 1})

	// Hold the watcher's first poll until the cold query has folded.
	var polls atomic.Int64
	release := make(chan struct{})
	proxy := forwardProxy(t, peers[0].ts.URL, func(path string) (bool, func(http.ResponseWriter)) {
		if path == "/watch" && polls.Add(1) == 1 {
			<-release
		}
		return false, nil
	})
	gw, ts := newTestGateway(t, opts, peers, func(c *Config) { c.Peers = []string{proxy.URL} })

	if q, _ := getQuery(t, ts.URL); q.Estimate != 1 {
		t.Fatalf("cold query estimate %g, want 1", q.Estimate)
	}
	close(release)
	// The watcher polls again only after it has handled the first poll's
	// push.
	waitFor(t, 10*time.Second, "the watcher's second poll", func() bool { return polls.Load() >= 2 })
	if st := gwStats(t, ts.URL); st.WatchPushes != 1 {
		t.Fatalf("watch_pushes %d, want the 1 late push", st.WatchPushes)
	}
	if n := gw.dirtyGen.Load(); n != 0 {
		t.Fatalf("a push of the folded epoch marked the fold dirty %d time(s)", n)
	}
	if _, hdr := getQuery(t, ts.URL); hdr.Get(StalenessHeader) != "0" {
		t.Fatalf("staleness %q after a covered push, want 0", hdr.Get(StalenessHeader))
	}
}

// TestStalenessHeaderNeverZeroWhileDirty pins the X-Sketch-Staleness
// contract: 0 means continuously validated, so a dirty fold installed
// under a millisecond ago must not report a truncated 0 — a settle loop
// would take it for clean while a pending round is about to replace it.
func TestStalenessHeaderNeverZeroWhileDirty(t *testing.T) {
	g := &Gateway{peers: []*peer{{}}}
	g.peers[0].watchOK.Store(true)
	g.lastFresh.Store(time.Now().UnixNano())
	rec := httptest.NewRecorder()
	g.setPushHeadersLocked(rec)
	if got := rec.Header().Get(StalenessHeader); got != "0" {
		t.Fatalf("clean fold staleness %q, want 0", got)
	}
	g.markDirty()
	rec = httptest.NewRecorder()
	g.setPushHeadersLocked(rec)
	if got := rec.Header().Get(StalenessHeader); got == "0" {
		t.Fatal("dirty fold reported staleness 0")
	}
}

// TestPushPeerRestartBehindSameURL pins that a peer restarted behind the
// same URL is pushed like any other. The watcher last saw the old daemon
// at epoch 200; the new one starts from 0, so a /watch that parked until
// its epoch passed 200 would leave the gateway serving the old fold as
// fresh (staleness 0) for a whole WatchTimeout. The new epoch must show
// in the fold within 2s at the default WatchTimeout.
func TestPushPeerRestartBehindSameURL(t *testing.T) {
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 43, StreamBound: 1 << 12, Kappa: 128}
	newDaemon := func() (*engine.Engine, *server.Server) {
		eng, err := engine.NewSamplerEngine(opts, engine.Config{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(eng.Close)
		srv, err := server.New(server.Config{Engine: eng, Dim: opts.Dim})
		if err != nil {
			t.Fatal(err)
		}
		return eng, srv
	}
	oldEng, oldSrv := newDaemon()
	for i := range 200 {
		oldEng.Process(geom.Point{float64(i%20) * 10, float64(i/20) * 10})
	}
	var current atomic.Pointer[server.Server]
	current.Store(oldSrv)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		current.Load().ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	peer := &testPeer{eng: oldEng, ts: ts}
	_, gwTS := newTestGateway(t, opts, []*testPeer{peer}, nil)
	waitFolded(t, gwTS.URL, []*testPeer{peer})

	// Restart: the new daemon takes over the URL, and the old one releases
	// its parked watches the way sketchd does on SIGTERM.
	newEng, newSrv := newDaemon()
	current.Store(newSrv)
	oldSrv.ReleaseWatches()
	for i := range 5 {
		newEng.ProcessBatch([]geom.Point{{float64(i) * 10, 500}})
	}

	want := strconv.FormatInt(newEng.Epoch(), 10)
	var q QueryResponse
	waitFor(t, 2*time.Second, "the fold to show the restarted peer's epoch", func() bool {
		var hdr http.Header
		q, hdr = getQuery(t, gwTS.URL)
		return hdr.Get(StalenessHeader) == "0" && hdr.Get(EpochVectorHeader) == want
	})
	if q.Estimate != 5 {
		t.Fatalf("estimate %g after the restart, want the new daemon's 5 groups", q.Estimate)
	}
}

// Package cluster federates a fleet of sketchd daemons behind one
// endpoint: the gateway behind cmd/sketchgw. N peers, each running a
// sharded sketch engine over identical options and seed, are treated as
// one logical sketch — the distributed extension of the same mergeability
// property internal/engine uses to shard within a process:
//
//   - Routed ingest: POST /ingest batches are partitioned by the hash of
//     each point's routing-grid cell (engine.Router — the same grid the
//     peers shard by), so every point lands on its cell's Replicas owners
//     (one peer by default) and a near-duplicate group lands together
//     with high probability (see ingest.go).
//   - Federated query: GET /query (and GET /sketch) answers from the
//     cached fold of every live peer's serialized merged snapshot,
//     sketch.Deserialized and folded with Mergeable.Merge; boundary
//     groups are repaired by the merge's α-ball coalescing, exactly as
//     between shards.
//   - Push propagation: one watcher per peer long-polls the peer's
//     GET /watch and marks the fold dirty on every ingest-epoch bump, and
//     a background refresher re-folds off the request path. Queries serve
//     the last good fold at once — a slightly stale merged sketch is still
//     a valid sketch of an earlier prefix of the stream — and pay a
//     synchronous refresh only when there is no fold yet or it is older
//     than MaxStale while dirty (see push.go).
//   - Partial failure is policy: PartialFail turns any unreachable peer
//     into a 502, PartialDegrade (the default) answers from the live
//     subset with "partial": true in the response.
//   - Federated cache: every peer snapshot is cached alongside its strong
//     ETag (derived from the peer's ingest epoch), re-fetched with
//     conditional GETs (a 304 reuses the cached deserialized sketch), and
//     the merged union plus per-k answers are cached keyed by the whole
//     peer-epoch vector — a refresh round over unchanged peers
//     deserializes and merges nothing.
//
// The gateway exposes the same HTTP API as a single daemon (/ingest,
// /query, /stats, /healthz — and /sketch, so gateways stack into trees),
// so clients are oblivious to whether they talk to one node or a cluster.
// Topology, failure semantics, routing, and the cache are documented in
// docs/cluster.md.
package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/pkg/sketch"
)

// Policy selects how a query behaves when some peers are unreachable.
type Policy string

// The partial-failure policies. PartialDegrade answers from the live
// peers and marks the response partial; PartialFail refuses with 502.
const (
	PartialDegrade Policy = "degrade"
	PartialFail    Policy = "fail"
)

// ParsePolicy parses a -partial flag value.
func ParsePolicy(s string) (Policy, error) {
	switch Policy(s) {
	case PartialDegrade, PartialFail:
		return Policy(s), nil
	default:
		return "", fmt.Errorf("cluster: unknown partial-failure policy %q (want %q or %q)",
			s, PartialDegrade, PartialFail)
	}
}

// NoRetries is the Config.Retries value that disables retries (the zero
// value selects the default instead).
const NoRetries = -1

// Config configures a Gateway.
type Config struct {
	// Peers are the base URLs of the sketchd daemons, e.g.
	// "http://10.0.0.1:7070". Required, at least one. Order matters: it is
	// the routing order, and must be stable across gateway restarts or
	// routed groups change peers (harmless for correctness of the union,
	// but splits groups across peers until they coalesce at merge time).
	Peers []string

	// Router maps points to peers (reduced mod len(Peers)); points of one
	// near-duplicate group should route together. Build it with
	// engine.NewRouterFromOptions over the same options the peers run.
	// Required.
	Router engine.Router

	// Dim is the point dimension used to parse ingest bodies. Required.
	Dim int

	// Replicas is the number of peers that own each routing cell (R-way
	// replicated placement; see engine.NewPlacement). The default 1
	// reproduces the single-owner routing bit for bit. With R > 1 routed
	// ingest fans each sub-batch to every owner, folds stay complete
	// (partial: false) while fewer than R peers are down, and sub-batches
	// missed by a down replica are queued for hinted handoff. At most
	// engine.MaxReplicas and at most len(Peers).
	Replicas int

	// HandoffMax bounds each peer's hinted-handoff queue, in sub-batch
	// bodies (each up to forwardChunkBytes). When a replica is down or a
	// forward to it fails, the missed sub-batches are queued and replayed
	// by a background drainer once the peer's breaker re-admits it; past
	// the bound the newest hint is dropped and counted (handoff_drops) —
	// ingest never blocks on a dead replica. Only used when Replicas > 1.
	// Defaults to 256.
	HandoffMax int

	// HandoffRetry is the handoff drainer's polling cadence: how often
	// queued hints retry their peer (admission still honors the breaker
	// cooldown, so a dead peer is probed, not hammered). Defaults to
	// 250ms.
	HandoffRetry time.Duration

	// Partial is the partial-failure policy for queries. Under replication
	// it applies to quorum-partial folds only: a fold missing fewer than
	// Replicas peers is complete, not partial. Defaults to PartialDegrade.
	Partial Policy

	// RequestTimeout bounds each attempt of each peer request. Defaults
	// to 5s.
	RequestTimeout time.Duration

	// Retries is the number of extra attempts per peer request after the
	// first. Only failures that might be transient retry: network errors
	// and 502–504 responses; any other status is a deterministic answer
	// and fails immediately. Defaults to 2; use NoRetries to disable.
	Retries int

	// RetryBackoff is the base delay between attempts (linear: attempt n
	// waits n×backoff). Defaults to 50ms.
	RetryBackoff time.Duration

	// DownAfter is the number of consecutive failed requests after which a
	// peer's circuit breaker opens. Defaults to 3.
	DownAfter int

	// DownCooldown is how long an open breaker skips the peer before the
	// next request probes it again. Defaults to 2s.
	DownCooldown time.Duration

	// MaxBodyBytes caps a single ingest body. Defaults to 64 MiB.
	MaxBodyBytes int64

	// Push is ignored: push-based epoch propagation is the gateway's only
	// mode.
	//
	// Deprecated: every gateway watches its peers; leave Push unset.
	Push bool

	// MaxStale bounds how stale a served fold may be: when the cache is
	// dirty (or a watcher is unhealthy) and the last good fold is older
	// than MaxStale, the query pays a synchronous refresh instead of
	// serving stale. 0 selects the 5s default; negative means no bound
	// (always serve stale, revalidate in background).
	MaxStale time.Duration

	// WatchTimeout is the long-poll timeout requested from peers'
	// GET /watch (the watcher reconnects on expiry). Defaults to 25s.
	WatchTimeout time.Duration

	// PollInterval is the conditional-GET polling cadence for peers that
	// answered 404 to /watch (daemons predating the endpoint). Defaults
	// to 500ms.
	PollInterval time.Duration

	// Client is the HTTP client for peer requests. Defaults to a client
	// with a transport tuned for the fan-out: keep-alives with at least
	// one idle connection per peer for scatter rounds plus one for the
	// push watcher, so warm rounds never re-dial (per-attempt timeouts
	// come from RequestTimeout).
	Client *http.Client

	// Trace makes the gateway mint an X-Sketch-Trace ID for requests
	// that arrive without one (inbound IDs are always honored and
	// propagated either way). Off by default: minting allocates, and
	// embedded gateways (tests, benchmarks) usually don't want it.
	Trace bool

	// NoMetrics disables the GET /metrics Prometheus exposition endpoint
	// and the per-stage latency histograms behind it. Trace propagation
	// and the slow-query log still work.
	NoMetrics bool

	// SlowQuery arms the slow-query log: any instrumented request slower
	// than this threshold emits one structured JSON line (schema in
	// docs/observability.md) to SlowQueryWriter. Zero disables it.
	SlowQuery time.Duration

	// SlowQueryWriter receives slow-query log lines. Defaults to
	// os.Stderr.
	SlowQueryWriter io.Writer
}

func (c Config) withDefaults() Config {
	if c.Partial == "" {
		c.Partial = PartialDegrade
	}
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if c.HandoffMax <= 0 {
		c.HandoffMax = 256
	}
	if c.HandoffRetry <= 0 {
		c.HandoffRetry = 250 * time.Millisecond
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 2
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	if c.DownAfter <= 0 {
		c.DownAfter = 3
	}
	if c.DownCooldown <= 0 {
		c.DownCooldown = 2 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.MaxStale == 0 {
		c.MaxStale = 5 * time.Second
	}
	if c.WatchTimeout <= 0 {
		c.WatchTimeout = 25 * time.Second
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 500 * time.Millisecond
	}
	if c.Client == nil {
		// One warm connection per peer for scatter rounds plus one parked
		// in the peer's /watch long-poll: without the headroom the
		// stdlib's 2-per-host idle default closes and re-dials connections
		// on every warm round once the fleet has more than a couple of
		// peers.
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = max(8, 2*len(c.Peers))
		tr.MaxIdleConns = max(tr.MaxIdleConns, 2*len(c.Peers)+8)
		c.Client = &http.Client{Transport: tr}
	}
	return c
}

// Gateway is the scatter-gather HTTP front end over a peer fleet. All
// handlers are safe for concurrent use; queries serialize on the
// federated cache (cacheMu), mirroring how a single daemon serializes
// snapshot queries on the engine's snapshot cache.
type Gateway struct {
	cfg       Config
	peers     []*peer
	placement engine.Placement // cell → R owning peers (R=1 is the legacy single-owner routing)
	mux       *http.ServeMux
	client    *http.Client
	start     time.Time

	ingestRequests atomic.Int64
	pointsRouted   atomic.Int64
	queries        atomic.Int64
	partialQueries atomic.Int64

	// Replication state (Replicas > 1; see handoff.go). handoff holds one
	// bounded hint queue per peer; the drainer goroutine replays queued
	// sub-batches when a peer's breaker re-admits it and read-repairs
	// replicas it sees rejoin.
	handoff         []*handoffQueue
	handoffKick     chan struct{} // wakes the drainer early (capacity 1)
	replicaFanout   atomic.Int64  // extra point copies routed to replica owners
	handoffDepth    atomic.Int64  // sub-batches currently queued across peers
	handoffEnqueued atomic.Int64  // sub-batches ever queued for handoff
	handoffDrained  atomic.Int64  // queued sub-batches successfully replayed
	handoffDropped  atomic.Int64  // sub-batches lost to overflow or rejected replays
	readRepairs     atomic.Int64  // rejoining replicas repaired with their merged slice

	// Federated query cache (see refresh): per-peer snapshots keyed by
	// the peers' ETags (ingest epochs), the merged union keyed by the
	// whole validator vector, and per-k answers on top. cacheMu guards
	// all of it and hands the merged sketch to one query at a time —
	// queries advance its RNG, so unsynchronized sharing would race.
	// The network scatter itself runs outside cacheMu under the flight
	// singleflight below, so handlers hold the lock only for the
	// in-memory fold and answer.
	cacheMu sync.Mutex

	// flightMu/inflight deduplicate concurrent scatter rounds: one
	// leader runs the network round (and exclusively owns peerSnaps for
	// its duration), followers wait for its outcome. Without this, a
	// slow not-yet-broken peer would make every concurrent query pay its
	// own full timeout-bounded round back to back.
	flightMu     sync.Mutex
	inflight     *flight
	peerSnaps    []peerSnap
	mergedKey    string
	merged       sketch.Mergeable
	mergedFo     fanout
	mergedBlob   []byte // lazily serialized union for GET /sketch
	mergedValid  bool
	mergedEpochs []int64                      // per-peer ingest epochs of the fold; -1 = down/unknown
	answers      map[int]server.QueryResponse // per-k answers for mergedKey
	nonce        atomic.Int64                 // validators for peers serving no ETag

	// Push-propagation state (see push.go). dirtyGen counts invalidation
	// events observed by the watchers; lastRoundGen is the dirtyGen value
	// a scatter round read *before* its network phase, stamped on install
	// — the fold is stale exactly when dirtyGen > lastRoundGen, and a
	// push landing during an in-flight round keeps the cache dirty
	// because the round's startGen predates it (no lost invalidation).
	// lastFresh is the unix-nano install time of the last good fold.
	dirtyGen     atomic.Int64
	lastRoundGen atomic.Int64
	lastFresh    atomic.Int64
	refreshKick  chan struct{}      // wakes the background refresher (capacity 1)
	stop         chan struct{}      // closed by Close; stops watchers and refresher
	stopCtx      context.Context    // canceled by Close; aborts in-flight watch polls
	stopCancel   context.CancelFunc //
	watcherWG    sync.WaitGroup
	closeOnce    sync.Once

	peerNotModified  atomic.Int64 // peer fetches answered 304 (cached snapshot reused)
	fedBytesSaved    atomic.Int64 // envelope bytes not re-transferred thanks to 304s
	fedCacheHits     atomic.Int64 // scatter rounds that reused the merged union (no fold)
	fedCacheMisses   atomic.Int64 // scatter rounds that had to re-fold
	fedAnswerHits    atomic.Int64 // queries served from the per-k answer cache
	peerDeserializes atomic.Int64 // envelope deserializations performed
	sketchMerges     atomic.Int64 // Mergeable.Merge folds performed
	notModified      atomic.Int64 // gateway's own 304s served to clients

	watchPushes        atomic.Int64 // epoch bumps received over /watch long-polls
	watchPollFallbacks atomic.Int64 // watchers downgraded to conditional-GET polling (peer has no /watch)
	bgRefreshes        atomic.Int64 // scatter rounds run by the background refresher
	staleServes        atomic.Int64 // queries answered from the cached fold with zero request-path peer round trips
	syncRefreshes      atomic.Int64 // queries that paid a synchronous refresh (cold, or staleness bound exceeded)
	maxStalenessNs     atomic.Int64 // maximum fold staleness observed at serve time

	reg  *telemetry.Registry // /metrics families; nil when NoMetrics
	slow *telemetry.SlowLog
	tel  gwTelemetry
}

// New builds a Gateway over the configured peers and starts its
// background goroutines: one watcher per peer, the refresher, and with
// Replicas > 1 the hinted-handoff drainer. The owner must call Close.
func New(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("cluster: Config.Peers is required")
	}
	if cfg.Router == nil {
		return nil, fmt.Errorf("cluster: Config.Router is required (engine.NewRouterFromOptions)")
	}
	if cfg.Dim < 1 {
		return nil, fmt.Errorf("cluster: Config.Dim must be ≥ 1, got %d", cfg.Dim)
	}
	pl, err := engine.NewPlacement(len(cfg.Peers), cfg.Replicas)
	if err != nil {
		return nil, fmt.Errorf("cluster: Config.Replicas: %w", err)
	}
	g := &Gateway{cfg: cfg, placement: pl, mux: http.NewServeMux(), client: cfg.Client, start: time.Now()}
	g.peerSnaps = make([]peerSnap, len(cfg.Peers))
	g.answers = make(map[int]server.QueryResponse)
	g.peers = make([]*peer, len(cfg.Peers))
	for i, raw := range cfg.Peers {
		u, err := url.Parse(raw)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cluster: peer %d: %q is not an absolute URL", i, raw)
		}
		g.peers[i] = &peer{url: strings.TrimRight(raw, "/")}
		g.peers[i].watchOK.Store(true)
		g.peers[i].foldEpoch.Store(-1)
	}
	g.initTelemetry()
	g.mux.HandleFunc("POST /ingest", g.handleIngest)
	g.mux.HandleFunc("GET /query", g.handleQuery)
	g.mux.HandleFunc("GET /sketch", g.handleSketch)
	g.mux.HandleFunc("GET /stats", g.handleStats)
	g.mux.HandleFunc("GET /healthz", g.handleHealthz)
	if g.reg != nil {
		g.mux.Handle("GET /metrics", g.reg)
	}
	g.stop = make(chan struct{})
	g.stopCtx, g.stopCancel = context.WithCancel(context.Background())
	g.refreshKick = make(chan struct{}, 1)
	g.watcherWG.Add(1)
	go g.refresher()
	for i, p := range g.peers {
		g.watcherWG.Add(1)
		go g.watchPeer(i, p)
	}
	if cfg.Replicas > 1 {
		g.handoff = make([]*handoffQueue, len(g.peers))
		for i := range g.handoff {
			g.handoff[i] = &handoffQueue{}
		}
		g.handoffKick = make(chan struct{}, 1)
		g.watcherWG.Add(1)
		go g.handoffDrainer()
	}
	return g, nil
}

// Close stops the background machinery: the per-peer watchers (aborting
// their in-flight long-polls), the background refresher, and the
// hinted-handoff drainer. Idempotent. In-flight HTTP requests served by
// the gateway are unaffected. Hints still queued when Close returns are
// dropped with the gateway.
func (g *Gateway) Close() {
	g.closeOnce.Do(func() {
		close(g.stop)
		g.stopCancel()
	})
	g.watcherWG.Wait()
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.mux.ServeHTTP(w, r) }

// QueryResponse is the JSON body of a successful GET /query: the single-
// daemon response plus federation metadata. A non-partial response is
// indistinguishable from one daemon's answer apart from the extra fields.
type QueryResponse struct {
	server.QueryResponse

	// Partial is true when the answer may be missing data: the fold lost
	// at least Replicas peers — i.e. possibly every owner of some routing
	// cell — or a contributing peer flagged its own fold partial
	// (PartialDegrade only; PartialFail errors instead). With replication,
	// folds missing fewer than Replicas peers are complete and Partial
	// stays false.
	Partial bool `json:"partial"`
	// Replicas is the configured replication factor: every routing cell
	// is owned by this many peers.
	Replicas int `json:"replicas"`
	// PeersTotal is the configured fleet size.
	PeersTotal int `json:"peers_total"`
	// PeersOK is the number of peers whose sketch contributed.
	PeersOK int `json:"peers_ok"`
	// FailedPeers lists the base URLs that were down or failed.
	FailedPeers []string `json:"failed_peers,omitempty"`
	// DegradedPeers lists peers (themselves gateways) that contributed a
	// fold they flagged as partial — their own failures are hidden behind
	// them, so the answer is partial even though they responded.
	DegradedPeers []string `json:"degraded_peers,omitempty"`
}

// PeerStatus is one peer's health in GET /stats.
type PeerStatus struct {
	// URL is the peer's base URL.
	URL string `json:"url"`
	// Up is true only while the peer's circuit breaker is closed; a
	// tripped peer stays down until a successful probe.
	Up bool `json:"up"`
	// Requests counts requests issued to the peer (retries count once).
	Requests int64 `json:"requests"`
	// Failures counts requests that failed after all retries.
	Failures int64 `json:"failures"`
	// ConsecutiveFailures is the current failure streak.
	ConsecutiveFailures int64 `json:"consecutive_failures"`
	// LastError is the most recent failure, if any.
	LastError string `json:"last_error,omitempty"`
	// WatchOK reports whether the peer's watcher (or its polling
	// fallback) is healthy.
	WatchOK bool `json:"watch_ok"`
}

// StatsResponse is the JSON body of GET /stats: gateway-local counters
// and per-peer health. It deliberately does not scatter to the peers —
// hit a peer's /stats directly for engine internals.
type StatsResponse struct {
	// Version is the binary's build version (ldflags or module info).
	Version string `json:"version"`
	// Commit is the binary's VCS revision, when known.
	Commit string `json:"commit"`
	// Peers is the per-peer health and traffic table.
	Peers []PeerStatus `json:"peers"`
	// PeersUp counts peers whose breaker is currently closed.
	PeersUp int `json:"peers_up"`
	// Replicas is the configured replication factor: each routing cell is
	// owned by this many peers (1 = unreplicated).
	Replicas int `json:"replicas"`
	// QuorumOK reports whether every routing cell currently has at least
	// one live owner (fewer than Replicas peers down, and at least one
	// up). While true, folds are complete and queries answer with
	// partial: false even though peers may be down.
	QuorumOK bool `json:"quorum_ok"`
	// ReplicaFanout counts the extra point copies routed to replica
	// owners, beyond the one primary copy per point (0 when Replicas
	// is 1).
	ReplicaFanout int64 `json:"replica_fanout"`
	// HandoffDepth is the number of sub-batch bodies currently queued for
	// hinted handoff, across all peers.
	HandoffDepth int64 `json:"handoff_depth"`
	// HandoffEnqueued counts sub-batches ever queued for hinted handoff
	// because a replica was down or a forward to it failed.
	HandoffEnqueued int64 `json:"handoff_enqueued"`
	// HandoffDrains counts queued sub-batches successfully replayed to
	// their recovered replica.
	HandoffDrains int64 `json:"handoff_drains"`
	// HandoffDrops counts sub-batches lost from the handoff queues:
	// overflow past HandoffMax, or a replay the peer answered but
	// rejected.
	HandoffDrops int64 `json:"handoff_drops"`
	// ReadRepairs counts rejoined replicas repaired by shipping them the
	// merged slice of the cell space they own (POST /sketch).
	ReadRepairs int64 `json:"read_repairs"`
	// PartialPolicy is the configured partial-failure policy.
	PartialPolicy Policy `json:"partial_policy"`
	// StartedAt is when the gateway was built (RFC 3339).
	StartedAt string `json:"started_at"`
	// UptimeSeconds is the time since the gateway was built.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// IngestRequests counts POST /ingest calls served.
	IngestRequests int64 `json:"ingest_requests"`
	// PointsRouted counts points forwarded to peers.
	PointsRouted int64 `json:"points_routed"`
	// Queries counts GET /query and GET /sketch requests served (most are
	// answered from the cached fold with no fan-out at all).
	Queries int64 `json:"queries"`
	// PartialQueries counts fan-outs answered from a strict peer subset.
	PartialQueries int64 `json:"partial_queries"`
	// PeerNotModified counts peer snapshot fetches answered 304 — the
	// cached deserialized sketch was reused without transfer or decode.
	PeerNotModified int64 `json:"peer_not_modified"`
	// FedBytesSaved totals the envelope bytes not re-transferred because
	// a peer answered 304 to a conditional GET.
	FedBytesSaved int64 `json:"fed_bytes_saved"`
	// FedCacheHits counts scatter rounds whose merged union was reused
	// because no peer epoch, down set, or degraded set had changed — the
	// whole fold (every deserialization and merge) was skipped.
	FedCacheHits int64 `json:"fed_cache_hits"`
	// FedCacheMisses counts scatter rounds that re-folded the union.
	FedCacheMisses int64 `json:"fed_cache_misses"`
	// FedAnswerHits counts GET /query responses served verbatim from the
	// per-k answer cache on top of a merged-union hit.
	FedAnswerHits int64 `json:"fed_answer_hits"`
	// PeerDeserializes counts sketch envelope deserializations performed
	// (zero across a warm-cache query).
	PeerDeserializes int64 `json:"peer_deserializes"`
	// SketchMerges counts Mergeable.Merge folds performed (zero across a
	// warm-cache query).
	SketchMerges int64 `json:"sketch_merges"`
	// NotModified counts the gateway's own 304 responses to conditional
	// GETs from its clients (e.g. a higher-tier gateway).
	NotModified int64 `json:"not_modified"`
	// WatchPushes counts epoch bumps received from peers over /watch
	// long-polls (each marks the federated cache dirty).
	WatchPushes int64 `json:"watch_pushes"`
	// WatchPollFallbacks counts watchers that downgraded to
	// conditional-GET polling because the peer has no /watch endpoint.
	WatchPollFallbacks int64 `json:"watch_poll_fallbacks"`
	// BgRefreshes counts scatter rounds run by the background refresher,
	// off the request path.
	BgRefreshes int64 `json:"bg_refreshes"`
	// StaleServes counts queries answered from the cached fold with zero
	// peer round trips on the request path.
	StaleServes int64 `json:"stale_serves"`
	// SyncRefreshes counts queries that paid a synchronous fan-out (cold
	// cache, or the staleness bound was exceeded).
	SyncRefreshes int64 `json:"sync_refreshes"`
	// MaxStalenessMS is the maximum fold staleness observed at serve
	// time, in milliseconds (0 until a stale fold is ever served).
	MaxStalenessMS float64 `json:"max_staleness_ms"`
}

func (g *Gateway) handleStats(w http.ResponseWriter, _ *http.Request) {
	version, commit := telemetry.BuildInfo()
	resp := StatsResponse{
		Version:          version,
		Commit:           commit,
		Peers:            make([]PeerStatus, len(g.peers)),
		Replicas:         g.cfg.Replicas,
		ReplicaFanout:    g.replicaFanout.Load(),
		HandoffDepth:     g.handoffDepth.Load(),
		HandoffEnqueued:  g.handoffEnqueued.Load(),
		HandoffDrains:    g.handoffDrained.Load(),
		HandoffDrops:     g.handoffDropped.Load(),
		ReadRepairs:      g.readRepairs.Load(),
		PartialPolicy:    g.cfg.Partial,
		StartedAt:        g.start.UTC().Format(time.RFC3339),
		UptimeSeconds:    time.Since(g.start).Seconds(),
		IngestRequests:   g.ingestRequests.Load(),
		PointsRouted:     g.pointsRouted.Load(),
		Queries:          g.queries.Load(),
		PartialQueries:   g.partialQueries.Load(),
		PeerNotModified:  g.peerNotModified.Load(),
		FedBytesSaved:    g.fedBytesSaved.Load(),
		FedCacheHits:     g.fedCacheHits.Load(),
		FedCacheMisses:   g.fedCacheMisses.Load(),
		FedAnswerHits:    g.fedAnswerHits.Load(),
		PeerDeserializes: g.peerDeserializes.Load(),
		SketchMerges:     g.sketchMerges.Load(),
		NotModified:      g.notModified.Load(),

		WatchPushes:        g.watchPushes.Load(),
		WatchPollFallbacks: g.watchPollFallbacks.Load(),
		BgRefreshes:        g.bgRefreshes.Load(),
		StaleServes:        g.staleServes.Load(),
		SyncRefreshes:      g.syncRefreshes.Load(),
		MaxStalenessMS:     float64(g.maxStalenessNs.Load()) / 1e6,
	}
	for i, p := range g.peers {
		resp.Peers[i] = PeerStatus{
			URL:                 p.url,
			Up:                  p.up(),
			Requests:            p.requests.Load(),
			Failures:            p.failures.Load(),
			ConsecutiveFailures: p.consec.Load(),
			LastError:           p.lastError(),
			WatchOK:             p.watchOK.Load(),
		}
	}
	resp.PeersUp = g.peersUp()
	resp.QuorumOK = g.quorumOK(resp.PeersUp)
	server.WriteJSON(w, http.StatusOK, resp)
}

// peersUp counts the peers whose circuit breaker is closed.
func (g *Gateway) peersUp() int {
	up := 0
	for _, p := range g.peers {
		if p.up() {
			up++
		}
	}
	return up
}

// quorumOK reports whether, with up peers live, every routing cell has
// at least one live owner: each cell's Replicas owners are distinct
// peers, so as long as fewer than Replicas peers are down no cell can
// have lost all of them.
func (g *Gateway) quorumOK(up int) bool {
	return up > 0 && len(g.peers)-up < g.cfg.Replicas
}

// handleHealthz reflects fleet health, placement-aware: 200 "ok" with
// every breaker closed, and — with replication — still 200 "ok" at
// reduced redundancy while fewer than Replicas peers are down, because
// every routing cell provably keeps a live owner and queries stay
// complete. "degraded" means quorum is lost: at least one cell may have
// no live owner (with Replicas 1 that is any down peer, reproducing the
// old behavior). 503 with no live peers at all (the gateway cannot
// answer anything). A tripped peer counts as down until a successful
// probe closes its breaker — elapsing cooldown alone never reports
// health back. Health is passive: it reflects what request traffic has
// observed, so peers that have never been talked to are presumed up (an
// idle gateway with unreachable peers reports ok until requests prove
// otherwise) — probe the peers' own /healthz for active cold-start
// detection. A non-empty hinted-handoff backlog is surfaced on its own
// line in every state.
func (g *Gateway) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	up := g.peersUp()
	down := len(g.peers) - up
	w.Header().Set("Content-Type", "text/plain")
	version, commit := telemetry.BuildInfo()
	switch {
	case up == 0:
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "no live peers")
	case down == 0:
		fmt.Fprintln(w, "ok")
	case down < g.cfg.Replicas:
		fmt.Fprintf(w, "ok (reduced redundancy: %d/%d peers down, every cell keeps a live owner at replicas=%d)\n",
			down, len(g.peers), g.cfg.Replicas)
	default:
		fmt.Fprintf(w, "degraded (%d/%d peers up)\n", up, len(g.peers))
	}
	if d := g.handoffDepth.Load(); d > 0 {
		fmt.Fprintf(w, "handoff backlog: %d sub-batches queued\n", d)
	}
	fmt.Fprintf(w, "build %s (%s)\n", version, commit)
}

package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/pointio"
	"repro/internal/server"
	"repro/internal/window"
)

// Sketch parameters every daemon runs. StreamBound 2^21 gives k-wise
// hashing at k = 2⌈log₂ m⌉+2 = 44; K = 8 sizes the accept set for
// eight samples, of which each infinite-window query asks for four.
const (
	streamBound = 1 << 21
	sampleK     = 8
	queryK      = 4
	sketchSeed  = 7
)

func sketchOptions() core.Options {
	return core.Options{Alpha: alpha, Dim: dim, StreamBound: streamBound, K: sampleK, Seed: sketchSeed, HighDim: true}
}

// newEngine builds one daemon's engine as cmd/sketchd would.
func newEngine(w *workload) (*engine.Engine, error) {
	cfg := engine.Config{Shards: w.shards}
	if w.window > 0 {
		return engine.NewWindowSamplerEngine(sketchOptions(), window.Window{Kind: window.Time, W: w.window}, cfg)
	}
	return engine.NewSamplerEngine(sketchOptions(), cfg)
}

// decode returns batch b's points, freshly allocated (engines keep them).
func (in *inputs) decode(b int) []geom.Point {
	pts, err := pointio.ReadBinaryBatch(bytes.NewReader(in.body(b)), dim)
	if err != nil {
		panic(fmt.Sprintf("perfbench: generated batch %d does not decode: %v", b, err))
	}
	return pts
}

// stamps returns n copies of batch b's stamp.
func stamps(b, n int) []int64 {
	st := make([]int64, n)
	for i := range st {
		st[i] = stamp(b)
	}
	return st
}

// processBatch hands pts (batch b) to eng the way the daemon's ingest handler
// does: stamped when the workload is windowed.
func processBatch(w *workload, eng *engine.Engine, b int, pts []geom.Point) {
	if w.window > 0 {
		eng.ProcessStampedBatch(pts, stamps(b, len(pts)))
		return
	}
	eng.ProcessBatch(pts)
}

// checkpoints returns one engine checkpoint per daemon holding the
// workload's warm-up prefix, routed to daemons exactly as the gateway
// routes ingest (each point to the R owners of its routing cell).
func checkpoints(w *workload, in *inputs) ([][]byte, error) {
	engines := make([]*engine.Engine, w.daemons())
	defer func() {
		for _, e := range engines {
			if e != nil {
				e.Close()
			}
		}
	}()
	for i := range engines {
		e, err := newEngine(w)
		if err != nil {
			return nil, err
		}
		engines[i] = e
	}
	route, err := ownersFunc(w)
	if err != nil {
		return nil, err
	}
	buckets := make([][]geom.Point, len(engines))
	var owners [engine.MaxReplicas]int
	for b := range w.warmBatches {
		for i := range buckets {
			buckets[i] = nil
		}
		for _, p := range in.decode(b) {
			for _, i := range route(p, owners[:0]) {
				buckets[i] = append(buckets[i], p)
			}
		}
		for i, pts := range buckets {
			if len(pts) > 0 {
				processBatch(w, engines[i], b, pts)
			}
		}
	}
	out := make([][]byte, len(engines))
	for i, e := range engines {
		var buf bytes.Buffer
		if _, err := e.Checkpoint(&buf); err != nil {
			return nil, fmt.Errorf("checkpoint daemon %d: %w", i, err)
		}
		out[i] = buf.Bytes()
	}
	return out, nil
}

// ownersFunc returns the daemons owning a point: daemon 0 alone for a
// single-daemon workload, else the gateway's replicated placement.
func ownersFunc(w *workload) (func(p geom.Point, buf []int) []int, error) {
	if w.peers == 0 {
		return func(_ geom.Point, buf []int) []int { return append(buf, 0) }, nil
	}
	router, err := engine.NewRouterFromOptions(sketchOptions())
	if err != nil {
		return nil, err
	}
	pl, err := engine.NewPlacement(w.peers, w.replicas)
	if err != nil {
		return nil, err
	}
	return func(p geom.Point, buf []int) []int { return pl.Owners(router.Route(p), buf) }, nil
}

// stack is one running system under test: the workload's daemons, each
// restored from its checkpoint and serving on a loopback port, and for
// cluster workloads a push-mode gateway in front of them.
type stack struct {
	engines    []*engine.Engine
	servers    []*http.Server
	daemonURLs []string
	gw         *cluster.Gateway
	gwSrv      *http.Server
	url        string          // the generator's target
	base       []int64         // engine Processed counts right after restore
	restore    []time.Duration // engine.Restore time per daemon
	serving    sync.WaitGroup  // one per Serve goroutine
}

// startStack constructs the serving stack from its public constructors,
// as cmd/sketchd and cmd/sketchgw (with their default flags) do. A
// non-nil tracer wraps every handler and the gateway's peer client.
func startStack(w *workload, ckpts [][]byte, tr *tracer) (*stack, error) {
	s := &stack{}
	for i, ck := range ckpts {
		eng, err := newEngine(w)
		if err != nil {
			s.stop()
			return nil, err
		}
		s.engines = append(s.engines, eng)
		t0 := time.Now()
		if err := eng.Restore(bytes.NewReader(ck)); err != nil {
			s.stop()
			return nil, fmt.Errorf("restore daemon %d: %w", i, err)
		}
		s.restore = append(s.restore, time.Since(t0))
		s.base = append(s.base, eng.Processed())
		srv, err := server.New(server.Config{Engine: eng, Dim: dim, Restored: true, Windowed: w.window > 0})
		if err != nil {
			s.stop()
			return nil, err
		}
		hs, url, err := s.serve(tr.handler(fmt.Sprintf("d%d", i), srv))
		if err != nil {
			s.stop()
			return nil, err
		}
		s.servers = append(s.servers, hs)
		s.daemonURLs = append(s.daemonURLs, url)
	}
	if w.peers == 0 {
		s.url = s.daemonURLs[0]
		return s, nil
	}
	router, err := engine.NewRouterFromOptions(sketchOptions())
	if err != nil {
		s.stop()
		return nil, err
	}
	gw, err := cluster.New(cluster.Config{
		Peers:    s.daemonURLs,
		Router:   router,
		Dim:      dim,
		Replicas: w.replicas,
		Push:     true,
		Trace:    true,
		Client:   tr.peerClient(len(s.daemonURLs)),
	})
	if err != nil {
		s.stop()
		return nil, err
	}
	s.gw = gw
	s.gwSrv, s.url, err = s.serve(tr.handler("gw", gw))
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// serve starts an HTTP server for h on a fresh loopback port.
func (s *stack) serve(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	s.serving.Add(1)
	go func() {
		defer s.serving.Done()
		if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			log.Printf("serve %s: %v", ln.Addr(), err)
		}
	}()
	return hs, "http://" + ln.Addr().String(), nil
}

// stop tears the stack down gateway first (its watchers hold peer
// connections), then the daemons, and waits for every server goroutine.
// Each server gets a short graceful shutdown and is then closed: a
// connection dialed but never used counts as active for five seconds
// under Shutdown alone.
func (s *stack) stop() {
	if s.gwSrv != nil {
		shutdown(s.gwSrv)
	}
	if s.gw != nil {
		s.gw.Close()
	}
	for _, hs := range s.servers {
		shutdown(hs)
	}
	s.serving.Wait()
	for _, e := range s.engines {
		e.Close()
	}
}

func shutdown(hs *http.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if hs.Shutdown(ctx) != nil {
		hs.Close()
	}
}

// quiesce waits, for at most 5s, until a gateway answers from a clean
// fold (X-Sketch-Staleness: 0), i.e. its background refresh has caught
// up with every push. A lone daemon has nothing pending after a drain.
func (s *stack) quiesce() {
	if s.gw == nil {
		return
	}
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		resp, err := http.Get(s.url + "/query")
		if err != nil {
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.Header.Get(cluster.StalenessHeader) == "0" {
			return
		}
	}
}

// drain waits until every daemon has folded all acknowledged points into
// its shard sketches and returns the points folded since restore, summed
// over daemons (a replicated point counts once per owner).
func (s *stack) drain() int64 {
	var n int64
	for i, e := range s.engines {
		e.Drain()
		n += e.Processed() - s.base[i]
	}
	return n
}

package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/pointio"
	"repro/internal/server"
	"repro/internal/window"
	"repro/pkg/sketch"
)

// cost is one ladder rung's measurement: wall time plus the process's
// heap allocations while it ran (engine workers included).
type cost struct {
	wall          time.Duration
	allocs, bytes uint64
}

func measure(f func()) cost {
	runtime.GC()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	t0 := time.Now()
	f()
	wall := time.Since(t0)
	runtime.ReadMemStats(&b)
	return cost{wall, b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc}
}

// report puts the rung's ns/pt, allocs/pt and B/pt for pts points.
func (c cost) report(m *metrics, rung, nsName string, pts int) {
	n := float64(pts)
	m.put(rung+"."+nsName, float64(c.wall.Nanoseconds())/n, "ns/pt", pts)
	m.put(rung+".allocs_per_pt", float64(c.allocs)/n, "allocs/pt", pts)
	m.put(rung+".bytes_per_pt", float64(c.bytes)/n, "B/pt", pts)
}

// ladder measures the in-process rungs on the workload's first
// ladderBatches batches after the warm-up prefix, one op = one batch:
// pointio decode, the sequential core sketch, the sharded engine, and
// the daemon's ServeHTTP without a socket. Each rung below the decoder
// starts from the warm-up state, fed untimed.
func ladder(w *workload, in *inputs, m *metrics) error {
	lo, hi := w.warmBatches, w.warmBatches+w.ladderBatch
	npts := (hi - lo) * w.batch

	c := measure(func() {
		for b := lo; b < hi; b++ {
			if _, err := pointio.ReadBinaryBatch(bytes.NewReader(in.body(b)), dim); err != nil {
				panic(err)
			}
		}
	})
	c.report(m, "pointio", "decode_ns_per_pt", npts)

	batches := make([][]geom.Point, hi)
	for b := range hi {
		batches[b] = in.decode(b)
	}
	st := make([]int64, w.batch)

	// Sequential core sketch.
	var (
		process func(b int)
		space   func() int
	)
	if w.window > 0 {
		ws, err := core.NewWindowSampler(sketchOptions(), window.Window{Kind: window.Time, W: w.window})
		if err != nil {
			return err
		}
		process = func(b int) {
			for i := range st {
				st[i] = stamp(b)
			}
			ws.ProcessStampedBatch(batches[b], st)
		}
		space = ws.SpaceWords
	} else {
		s, err := core.NewSampler(sketchOptions())
		if err != nil {
			return err
		}
		process = func(b int) { s.ProcessBatch(batches[b]) }
		space = s.SpaceWords
	}
	for b := range lo {
		process(b)
	}
	c = measure(func() {
		for b := lo; b < hi; b++ {
			process(b)
		}
	})
	c.report(m, "core", "ns_per_pt", npts)
	m.put("core.space_words", float64(space()), "words", 1)

	// Sharded engine at the workload's shard count.
	eng, err := warmEngine(w, batches[:lo])
	if err != nil {
		return err
	}
	before := eng.Stats().PerShard
	var blocked time.Duration
	c = measure(func() {
		for b := lo; b < hi; b++ {
			t := time.Now()
			processBatch(w, eng, b, batches[b])
			blocked += time.Since(t)
		}
		eng.Drain()
	})
	c.report(m, "engine", "ns_per_pt", npts)
	m.put("engine.block_frac", blocked.Seconds()/c.wall.Seconds(), "fraction", hi-lo)
	m.put("engine.shard_skew", skew(before, eng.Stats().PerShard), "max/mean", len(before))
	var snap samples
	for b := lo; b < min(lo+9, hi); b++ {
		processBatch(w, eng, b, batches[b])
		eng.Drain()
		t := time.Now()
		if _, err := eng.Snapshot(); err != nil {
			eng.Close()
			return fmt.Errorf("engine snapshot: %w", err)
		}
		snap.add(ms(time.Since(t)))
	}
	m.put("engine.snapshot_ms", snap.median(), "ms", snap.n())
	eng.Close()

	// The daemon's handler, driven through ServeHTTP with no socket.
	eng, err = warmEngine(w, batches[:lo])
	if err != nil {
		return err
	}
	defer eng.Close()
	srv, err := server.New(server.Config{Engine: eng, Dim: dim, Windowed: w.window > 0})
	if err != nil {
		return err
	}
	var bad error
	c = measure(func() {
		for b := lo; b < hi; b++ {
			req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(in.body(b)))
			req.Header.Set("Content-Type", pointio.BinaryContentType)
			if w.window > 0 {
				req.Header.Set(server.StampHeader, strconv.FormatInt(stamp(b), 10))
			}
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK && bad == nil {
				bad = fmt.Errorf("ServeHTTP ingest batch %d: HTTP %d: %s", b, rec.Code, rec.Body)
			}
		}
		eng.Drain()
	})
	if bad != nil {
		return bad
	}
	c.report(m, "server", "ns_per_pt", npts)
	return nil
}

// warmEngine returns a fresh engine fed the warm-up batches and drained.
func warmEngine(w *workload, warm [][]geom.Point) (*engine.Engine, error) {
	eng, err := newEngine(w)
	if err != nil {
		return nil, err
	}
	for b, pts := range warm {
		processBatch(w, eng, b, pts)
	}
	eng.Drain()
	return eng, nil
}

// skew is max/mean of the per-shard processed counts gained between two
// Stats calls.
func skew(before, after []int64) float64 {
	var sum, top int64
	for i := range after {
		d := after[i] - before[i]
		sum += d
		top = max(top, d)
	}
	return ratio(float64(top)*float64(len(after)), float64(sum))
}

// exportCost measures the sketch wire path on the daemons' final
// exports: their size, sketch.Deserialize, and folding all of them into
// one with Mergeable.Merge (a lone daemon's export is merged into a copy
// of itself, an idempotent union).
func exportCost(blobs [][]byte, m *metrics) error {
	var size, deser, merge samples
	for range 3 {
		sks := make([]sketch.Sketch, len(blobs))
		for i, blob := range blobs {
			size.add(float64(len(blob)))
			t := time.Now()
			sk, err := sketch.Deserialize(blob)
			if err != nil {
				return fmt.Errorf("deserialize export %d: %w", i, err)
			}
			deser.add(ms(time.Since(t)))
			sks[i] = sk
		}
		acc, err := sketch.Deserialize(blobs[0])
		if err != nil {
			return err
		}
		others := sks[1:]
		if len(others) == 0 {
			others = sks
		}
		t := time.Now()
		for _, sk := range others {
			if err := acc.(sketch.Mergeable).Merge(sk); err != nil {
				return fmt.Errorf("merge exports: %w", err)
			}
		}
		merge.add(ms(time.Since(t)))
	}
	m.put("sketch.export_bytes", size.mean(), "B", size.n())
	m.put("sketch.deserialize_ms", deser.median(), "ms", deser.n())
	m.put("sketch.merge_ms", merge.median(), "ms", merge.n())
	return nil
}

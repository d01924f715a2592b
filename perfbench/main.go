// Command perfbench is the repository's end-to-end benchmark. The
// serving process builds the serving stack from its public constructors
// (daemons restored from checkpoints, and for the cluster workload a
// push-mode gateway in front of them). A generator process, the same
// binary re-executed, drives it over loopback HTTP with at most NumCPU
// connections and checks every answer with an oracle built from the
// generator's ground truth. Every metric is printed with its unit and
// sample count. The last line of standard output is a JSON object
// {correct, attempted, failed, metrics}.
//
//	perfbench --workload daemon-distinct --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics. --trace 1 measures the
// per-layer metrics: the in-process ladder plus a separate traced run.
// --workload all runs every workload in turn. See README.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"
)

// workload is one benchmark input: the topology it is served through
// and the shape of its traffic. All workloads are 2-D with α = 1 and
// binary ingest batches.
type workload struct {
	name     string
	peers    int   // daemons behind a gateway; 0 serves one daemon directly
	shards   int   // engine shards per daemon
	replicas int   // gateway replication factor
	window   int64 // time-window width in batch stamps; 0 = infinite window
	traffic  traffic

	batch       int     // points per ingest request
	queryEvery  int     // ingest batches per query
	openRate    float64 // open-loop ingest rate, points/s
	closedRate  float64 // nominal closed-loop rate, points/s: sizes each closed slice's work
	warmBatches int     // warm-up prefix restored from the checkpoint
	ladderBatch int     // batches each ladder rung runs
}

func (w *workload) daemons() int     { return max(w.peers, 1) }
func (w *workload) replicasOr1() int { return max(w.replicas, 1) }

// workloads lists the benchmark's workloads. closedRate is about the
// closed-loop rate measured on a 2-CPU VM when the benchmark was
// introduced, and openRate a quarter to a third of it: nearer half, the
// open-loop p90 swung by more than its bound from run to run there.
var workloads = []*workload{
	{
		name: "daemon-distinct", shards: runtime.NumCPU(), traffic: distinctTraffic,
		batch: 512, queryEvery: 32, openRate: 60e3, closedRate: 250e3,
		warmBatches: 200, ladderBatch: 400,
	},
	{
		name: "cluster-zipf", peers: 3, shards: 2, replicas: 2, traffic: zipfTraffic,
		batch: 512, queryEvery: 2, openRate: 30e3, closedRate: 120e3,
		warmBatches: 200, ladderBatch: 400,
	},
	{
		name: "window-churn", shards: runtime.NumCPU(), window: 64, traffic: churnTraffic,
		batch: 512, queryEvery: 16, openRate: 15e3, closedRate: 70e3,
		warmBatches: 256, ladderBatch: 200,
	},
}

// A run is --seconds/roundLen rounds, each a closed-loop slice of
// nominally closedLen (a fixed number of batches sized by closedRate)
// and an open-loop slice of roundLen-closedLen.
const (
	roundLen  = 2500 * time.Millisecond
	closedLen = 750 * time.Millisecond
)

// setupRuns is how many times a run constructs the stack; setup_s is
// their median and the last one serves the measured phases.
const setupRuns = 9

// phaseTimeout bounds a run's measured phases; requests still unsent
// then count as failed.
const phaseTimeout = 150 * time.Second

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: daemon-distinct, cluster-zipf, window-churn, or all")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "0 measures end-to-end metrics, 1 per-layer metrics (ladder + traced run)")
	control := fs.String("control", "", "internal: run as the generator process driving the serving process at this URL")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		log.Print("--seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	var todo []*workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		log.Printf("unknown --workload %q", *name)
		return 2
	}
	d := time.Duration(*seconds) * time.Second
	if *control != "" {
		if err := generatorMain(todo[0], *seed, d, *trace == 1, *control); err != nil {
			log.Printf("%s generator: %v", todo[0].name, err)
			return 1
		}
		return 0
	}
	all := &metrics{}
	total := result{Correct: true}
	for _, w := range todo {
		m, ref, res, err := runWorkload(w, *seed, d, *trace)
		if err != nil {
			log.Printf("%s: %v", w.name, err)
			return 1
		}
		m.table(os.Stdout, fmt.Sprintf("%s seed=%d trace=%d seconds=%d (go %s, num_cpu %d, GOMAXPROCS %d)",
			w.name, *seed, *trace, *seconds, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0)))
		ref.table(os.Stdout, w.name+" for reference, not in the result line")
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for _, x := range m.list {
			if len(todo) > 1 {
				x.name = w.name + "/" + x.name
			}
			all.list = append(all.list, x)
		}
	}
	out := all.result(total.Correct, total.Attempted, total.Failed)
	if err := out.print(os.Stdout); err != nil {
		log.Print(err)
		return 1
	}
	if !out.Correct {
		return 1
	}
	return 0
}

// plan is the shape of one run, derived from the workload and
// --seconds alike in both processes.
type plan struct {
	rounds  int
	closedN int // batches per closed-loop slice
	openN   int // batches per open-loop slice
}

func newPlan(w *workload, d time.Duration) plan {
	return plan{
		rounds:  max(1, int(d/roundLen)),
		closedN: int(w.closedRate*closedLen.Seconds())/w.batch + 1,
		openN:   int(w.openRate*(roundLen-closedLen).Seconds())/w.batch + 1,
	}
}

// batches is how many batches the generator makes: the warm-up prefix,
// then every round's traffic (each stack replays it from the start).
func (p plan) batches(w *workload) int {
	return w.warmBatches + max(p.rounds*(p.closedN+p.openN), w.ladderBatch)
}

// runWorkload is the serving process's side of one run. It checkpoints
// the warm-up prefix, runs the ladder when traced, serves the control
// API, and runs the generator process to completion. It returns the
// metrics of the result line, further figures printed for reference
// only, and the request verdict.
func runWorkload(w *workload, seed uint64, d time.Duration, trace int) (m, ref *metrics, res result, err error) {
	// The generator's batches extend the same stream, so this prefix is
	// identical to the generator's first batches.
	in := generate(w, seed, w.warmBatches+w.ladderBatch)
	ckpts, err := checkpoints(w, in)
	if err != nil {
		return nil, nil, result{}, err
	}
	m, ref = &metrics{}, &metrics{}
	if trace == 1 {
		if err := ladder(w, in, m); err != nil {
			return nil, nil, result{}, err
		}
	}
	in = nil

	ctl := &ctlServer{w: w, seed: seed, ckpts: ckpts}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, result{}, err
	}
	srv := &http.Server{Handler: ctl}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln)
	}()
	defer func() {
		srv.Close()
		<-served
		ctl.mu.Lock()
		ctl.stop()
		ctl.mu.Unlock()
	}()

	self, err := os.Executable()
	if err != nil {
		return nil, nil, result{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), phaseTimeout+30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "--workload", w.name, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(int(d/time.Second)), "--trace", strconv.Itoa(trace), "--control", "http://"+ln.Addr().String())
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, result{}, fmt.Errorf("generator process: %w", err)
	}
	var rep genReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		return nil, nil, result{}, fmt.Errorf("generator report: %w", err)
	}
	fromWire(rep.Metrics, m)
	fromWire(rep.Ref, ref)
	if rep.FirstErr != "" {
		log.Printf("%s: %d of %d requests failed; first: %s", w.name, rep.Failed, rep.Attempted, rep.FirstErr)
	}
	return m, ref, m.result(rep.Failed == 0, rep.Attempted, rep.Failed), nil
}

// genReport is the generator process's output: one JSON object.
type genReport struct {
	Metrics   []wireMetric `json:"metrics"`
	Ref       []wireMetric `json:"ref"`
	Attempted int64        `json:"attempted"`
	Failed    int64        `json:"failed"`
	FirstErr  string       `json:"first_err,omitempty"`
}

// generatorMain is the generator process: it generates the run's inputs
// from seed, drives the serving process's stack, and prints a genReport.
func generatorMain(w *workload, seed uint64, d time.Duration, traced bool, control string) error {
	p := newPlan(w, d)
	b := &bench{w: w, seed: seed, plan: p, in: generate(w, seed, p.batches(w)), conns: runtime.NumCPU(),
		ctl: &ctlClient{base: control, hc: &http.Client{Timeout: phaseTimeout}}}
	m, ref := &metrics{}, &metrics{}
	var (
		t   *tally
		err error
	)
	if traced {
		t, err = b.perLayer(m, ref)
	} else {
		t, err = b.endToEnd(m, ref)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(genReport{toWire(m), toWire(ref), t.attempted, t.failed, t.firstErr})
}

// bench is the generator's view of one run.
type bench struct {
	w    *workload
	seed uint64
	plan
	in    *inputs
	conns int
	ctl   *ctlClient
}

// setup has the serving process build a stack and waits for its first
// correct query; the time between is setup_s.
func (b *bench) setup(traced bool) (*driver, time.Duration, error) {
	t0 := time.Now()
	q := url.Values{"trace": {"0"}}
	var tr *tracer
	if traced {
		q.Set("trace", "1")
		tr = newTracer()
	}
	var rep setupReply
	if err := b.ctl.call("/setup", q, &rep); err != nil {
		return nil, 0, err
	}
	d := &driver{w: b.w, in: b.in, url: rep.URL, ctl: b.ctl, cl: newClient(b.conns, tr), prog: newProgress(b.in, b.w.warmBatches)}
	if err := d.firstCorrectQuery(context.Background()); err != nil {
		d.stop()
		return nil, 0, fmt.Errorf("setup: %w", err)
	}
	return d, time.Since(t0), nil
}

func (d *driver) stop() {
	d.cl.close()
	if err := d.ctl.call("/stop", nil, nil); err != nil {
		log.Print(err)
	}
}

// endToEnd measures the end-to-end metrics: setup, then rounds of a
// closed-loop throughput slice and an open-loop latency slice.
func (b *bench) endToEnd(m, ref *metrics) (*tally, error) {
	var setupS samples
	var d *driver
	for i := range setupRuns {
		var (
			el  time.Duration
			err error
		)
		if d, el, err = b.setup(false); err != nil {
			return nil, err
		}
		setupS.add(el.Seconds())
		if i < setupRuns-1 {
			d.stop()
		}
	}
	// Alternate closed- and open-loop slices so that a burst of
	// interference from outside the process moves a few slices of each,
	// not a whole phase; the throughput is the median slice's. Every run
	// sends the same batches in the same order, so the served state
	// evolves alike in every run.
	ctx, cancel := context.WithTimeout(context.Background(), phaseTimeout)
	defer cancel()
	var rates samples
	closed, open := &tally{}, &tally{}
	for range b.rounds {
		t, wall := d.closedLoop(ctx, b.conns, b.closedN)
		rates.add(float64(t.ackedPts) / wall.Seconds())
		closed.merge(t)
		open.merge(d.openLoop(ctx, b.conns, b.openN, b.w.openRate))
	}
	var heap wireMetric
	if err := b.ctl.call("/heap", nil, &heap); err != nil {
		return nil, err
	}
	d.stop()

	m.put("setup_s", setupS.median(), "s", setupS.n())
	m.put("ingest_pts_per_s", rates.median(), "pts/s", rates.n())
	m.put("query_p50_ms", open.queryMs.steady(0.5), "ms", len(open.queryMs))
	m.put(heap.Name, heap.Value, heap.Unit, heap.N)

	// Ingest latencies and the query p90 spread by more than a useful
	// bound from run to run on the 2-CPU VM the benchmark was built on
	// (see README.md), so they are reported but not gated.
	closed.merge(open)
	ref.put("ingest_p50_ms", open.ingestMs.steady(0.5), "ms", len(open.ingestMs))
	ref.put("ingest_p90_ms", open.ingestMs.steady(0.9), "ms", len(open.ingestMs))
	ref.put("query_p90_ms", open.queryMs.steady(0.9), "ms", len(open.queryMs))
	ref.put("error_rate", ratio(float64(closed.failed), float64(closed.attempted)), "fraction", int(closed.attempted))
	ref.put("ingest_p99_ms", open.ingestMs.all().quantile(0.99), "ms", len(open.ingestMs))
	ref.put("query_p99_ms", open.queryMs.all().quantile(0.99), "ms", len(open.queryMs))
	ref.put("gen.lag_p90_ms", open.lagMs.quantile(0.9), "ms", open.lagMs.n())
	ref.put("estimate_ratio_min", minOf(closed.estRatio), "ratio", closed.estRatio.n())
	ref.put("estimate_ratio_max", maxOf(closed.estRatio), "ratio", closed.estRatio.n())
	return closed, nil
}

// perLayer measures the generator's share of the per-layer metrics: an
// untraced closed loop as the tracing-overhead base, then a separate
// traced stack (closed and open loop, half a run each) whose spans and
// counters the serving process rolls up.
func (b *bench) perLayer(m, ref *metrics) (*tally, error) {
	w := b.w
	m.put("core.distinct_frac", b.in.distinctFrac(b.in.batches), "fraction", b.in.batches*w.batch)
	m.put("core.expired_frac", b.in.expiredFrac(b.in.batches), "fraction", b.in.groups)

	ctx, cancel := context.WithTimeout(context.Background(), phaseTimeout)
	defer cancel()
	d, _, err := b.setup(false)
	if err != nil {
		return nil, err
	}
	var before, after memReply
	if err := b.ctl.call("/memstats", nil, &before); err != nil {
		return nil, err
	}
	untraced, wall := d.closedLoop(ctx, b.conns, b.closedN*b.rounds/2)
	if err := b.ctl.call("/memstats", nil, &after); err != nil {
		return nil, err
	}
	d.stop()
	untracedRate := float64(untraced.ackedPts) / wall.Seconds()
	pts := int(untraced.ackedPts)
	m.put("loopback.ns_per_pt", 1e9/untracedRate, "ns/pt", pts)
	m.put("loopback.allocs_per_pt", float64(after.Mallocs-before.Mallocs)/float64(pts), "allocs/pt", pts)
	m.put("loopback.bytes_per_pt", float64(after.TotalAlloc-before.TotalAlloc)/float64(pts), "B/pt", pts)

	if d, _, err = b.setup(true); err != nil {
		return nil, err
	}
	t0 := time.Now()
	traced, twall := d.closedLoop(ctx, b.conns, b.closedN*b.rounds/2)
	tracedRate := float64(traced.ackedPts) / twall.Seconds()
	open := d.openLoop(ctx, b.conns, b.openN*b.rounds/2, w.openRate)
	var server []wireMetric
	err = b.ctl.call("/report", url.Values{"seconds": {strconv.FormatFloat(time.Since(t0).Seconds(), 'f', -1, 64)}}, &server)
	d.stop()
	if err != nil {
		return nil, err
	}
	if err := d.cl.tr.dump(spanPath(w, b.seed, "gen")); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fromWire(server, m)
	m.put("gen.lag_p90_ms", open.lagMs.quantile(0.9), "ms", open.lagMs.n())
	traced.merge(open)
	m.put("cluster.staleness_p90_ms", traced.stalenessMs.quantile(0.9), "ms", traced.stalenessMs.n())
	m.put("trace.overhead_pts_per_s", untracedRate-tracedRate, "pts/s", 2)

	untraced.merge(traced)
	ref.put("untraced_pts_per_s", untracedRate, "pts/s", 1)
	ref.put("traced_pts_per_s", tracedRate, "pts/s", 1)
	ref.put("error_rate", ratio(float64(untraced.failed), float64(untraced.attempted)), "fraction", int(untraced.attempted))
	return untraced, nil
}

// spanPath is where a process's spans of one traced run are written.
func spanPath(w *workload, seed uint64, proc string) string {
	return filepath.Join(".bench_build", "spans", fmt.Sprintf("spans-%s-seed%d-%s.jsonl", w.name, seed, proc))
}

// liveHeapMiB forces a collection and returns the live heap.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func minOf(s samples) float64 {
	if len(s) == 0 {
		return 0
	}
	return slices.Min(s)
}

func maxOf(s samples) float64 {
	if len(s) == 0 {
		return 0
	}
	return slices.Max(s)
}

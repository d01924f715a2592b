package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"time"
)

// samples is a list of observations.
type samples []float64

func (s *samples) add(v float64) { *s = append(*s, v) }
func (s samples) n() int         { return len(s) }

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// quantile returns the q-quantile by linear interpolation between the
// closest ranks (0 for no samples).
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := slices.Clone(s)
	slices.Sort(c)
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(c)-1)
	return c[lo] + (c[hi]-c[lo])*(pos-float64(lo))
}

func (s samples) median() float64 { return s.quantile(0.5) }

// latency is one open-loop request's latency, keyed by its scheduled send.
type latency struct {
	at time.Time
	ms float64
}

type latencies []latency

func (l latencies) all() samples {
	s := make(samples, len(l))
	for i, x := range l {
		s[i] = x.ms
	}
	return s
}

// chunkMin is the fewest observations a chunk of latencies holds: a p90
// then has at least ten observations beyond it.
const chunkMin = 100

// steady returns the q-quantile of l as the median over consecutive
// chunks of the schedule, each of at least chunkMin observations, of
// the chunk's own q-quantile. One stall then moves one chunk, not the
// run's figure. With fewer than 2·chunkMin observations it is the plain
// quantile.
func (l latencies) steady(q float64) float64 {
	l = slices.Clone(l)
	slices.SortFunc(l, func(a, b latency) int { return a.at.Compare(b.at) })
	k := max(1, len(l)/chunkMin)
	var per samples
	for i := range k {
		per.add(latencies(l[i*len(l)/k : (i+1)*len(l)/k]).all().quantile(q))
	}
	return per.median()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metric is one reported number with its unit and sample count.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

// metrics keeps reported numbers in report order.
type metrics struct{ list []metric }

func (m *metrics) put(name string, value float64, unit string, n int) {
	m.list = append(m.list, metric{name, value, unit, n})
}

// table prints one line per metric: name, value, unit, sample count.
func (m *metrics) table(w io.Writer, title string) {
	fmt.Fprintf(w, "# %s\n", title)
	for _, x := range m.list {
		fmt.Fprintf(w, "%-30s %16.6g %-8s n=%d\n", x.name, x.value, x.unit, x.n)
	}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]resultItem `json:"metrics"`
}

type resultItem struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m *metrics) result(correct bool, attempted, failed int64) result {
	r := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]resultItem{}}
	for _, x := range m.list {
		r.Metrics[x.name] = resultItem{x.value, x.unit}
	}
	return r
}

// print writes r as one JSON line; it fails on a value JSON cannot
// carry (NaN or ±Inf).
func (r result) print(w io.Writer) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

package main

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
)

// Group layout. Group centers sit on a square lattice of side
// lattice×lattice cells spaced cellStep apart — far beyond α, so groups
// are (α,β)-sparse — and every point is its center plus ±jitter per
// coordinate. Group ids are scattered over the lattice by an odd
// multiplier (a bijection mod lattice²), so consecutive ids land far
// apart and spread over every routing cell.
const (
	dim       = 2
	alpha     = 1.0
	lattice   = 2048
	cellStep  = 10.0
	jitter    = 0.25
	idMask    = lattice*lattice - 1
	idScatter = 0x9E3779B1
	ptBytes   = 8 * dim
)

// idUnscatter is the inverse of idScatter mod lattice².
var idUnscatter = func() uint64 {
	inv := uint64(idScatter)
	for range 5 {
		inv *= 2 - idScatter*inv
	}
	return inv & idMask
}()

// center returns group id's lattice center.
func center(id uint32) (x, y float64) {
	pos := (uint64(id) * idScatter) & idMask
	return float64(pos%lattice) * cellStep, float64(pos/lattice) * cellStep
}

// groupOf maps a served sample back to the generated group it must
// belong to: the nearest lattice center, accepted only within α. ok is
// false for a point near no lattice center or one whose id was never
// generated.
func (in *inputs) groupOf(p []float64) (id uint32, ok bool) {
	if len(p) != dim {
		return 0, false
	}
	col, row := math.Round(p[0]/cellStep), math.Round(p[1]/cellStep)
	if col < 0 || row < 0 || col >= lattice || row >= lattice {
		return 0, false
	}
	if math.Hypot(p[0]-col*cellStep, p[1]-row*cellStep) > alpha {
		return 0, false
	}
	id = uint32((uint64(row*lattice+col) * idUnscatter) & idMask)
	return id, int(id) < in.groups
}

// traffic selects how a workload draws the group of each point.
type traffic int

const (
	// distinctTraffic opens a new group for almost every point; the rest
	// repeat a uniformly chosen earlier group.
	distinctTraffic traffic = iota
	// zipfTraffic draws from a fixed population with zipf popularity.
	zipfTraffic
	// churnTraffic mixes fresh groups with repeats of groups seen in the
	// last two window widths, half of which have already expired.
	churnTraffic
)

const (
	distinctRepeat = 0.02 // share of repeated groups under distinctTraffic
	zipfGroups     = 4096
	zipfS          = 1.2
	churnFresh     = 0.5 // share of fresh groups under churnTraffic
)

// inputs holds one workload's pre-encoded request bodies and the ground
// truth the oracle checks answers against. Batch b carries stamp b+1.
type inputs struct {
	w       *workload
	batches int
	bodies  []byte   // packed-binary batches back to back
	gid     []uint32 // group of every point
	groups  int      // group ids in use: [0, groups)

	// distinctBefore[b] is the number of distinct groups in batches [0, b).
	distinctBefore []int32
	// firstBatch[id] is the first batch carrying group id.
	firstBatch []int32
	// apOff/apBatch list, per group, the ascending batches carrying it
	// (CSR form): group id appears in apBatch[apOff[id]:apOff[id+1]].
	// Built for windowed workloads only.
	apOff, apBatch []int32
}

// body returns batch b's packed-binary request body.
func (in *inputs) body(b int) []byte {
	n := in.w.batch * ptBytes
	return in.bodies[b*n : (b+1)*n]
}

// stamp returns batch b's X-Sketch-Stamp.
func stamp(b int) int64 { return int64(b) + 1 }

// generate builds batches batches of w's traffic from seed.
func generate(w *workload, seed uint64, batches int) *inputs {
	rng := rand.New(rand.NewPCG(seed, 0x5eed^uint64(w.traffic)))
	n := batches * w.batch
	in := &inputs{w: w, batches: batches, gid: make([]uint32, n), bodies: make([]byte, 0, n*ptBytes)}
	var zipf *rand.Zipf
	if w.traffic == zipfTraffic {
		zipf = rand.NewZipf(rng, zipfS, 1, zipfGroups-1)
		in.groups = zipfGroups
	}
	recent := 2 * int(w.window) * w.batch // churn repeats reach back this many points
	for i := range in.gid {
		var id uint32
		switch w.traffic {
		case distinctTraffic:
			if i > 0 && rng.Float64() < distinctRepeat {
				id = in.gid[rng.IntN(i)]
			} else {
				id = uint32(in.groups)
				in.groups++
			}
		case zipfTraffic:
			id = uint32(zipf.Uint64())
		case churnTraffic:
			if i > 0 && rng.Float64() >= churnFresh {
				lo := max(0, i-recent)
				id = in.gid[lo+rng.IntN(i-lo)]
			} else {
				id = uint32(in.groups)
				in.groups++
			}
		}
		in.gid[i] = id
		x, y := center(id)
		in.bodies = binary.LittleEndian.AppendUint64(in.bodies, math.Float64bits(x+(rng.Float64()*2-1)*jitter))
		in.bodies = binary.LittleEndian.AppendUint64(in.bodies, math.Float64bits(y+(rng.Float64()*2-1)*jitter))
	}

	in.distinctBefore = make([]int32, batches+1)
	in.firstBatch = make([]int32, in.groups)
	for i := range in.firstBatch {
		in.firstBatch[i] = -1
	}
	distinct := int32(0)
	for b := range batches {
		for _, id := range in.gid[b*w.batch : (b+1)*w.batch] {
			if in.firstBatch[id] < 0 {
				in.firstBatch[id] = int32(b)
				distinct++
			}
		}
		in.distinctBefore[b+1] = distinct
	}
	if w.window > 0 {
		in.buildAppearances()
	}
	return in
}

// buildAppearances fills the per-group appearance lists.
func (in *inputs) buildAppearances() {
	bs := in.w.batch
	in.apOff = make([]int32, in.groups+1)
	last := make([]int32, in.groups)
	for i := range last {
		last[i] = -1
	}
	for i, id := range in.gid {
		if b := int32(i / bs); last[id] != b {
			last[id] = b
			in.apOff[id+1]++
		}
	}
	for id := range in.groups {
		in.apOff[id+1] += in.apOff[id]
	}
	in.apBatch = make([]int32, in.apOff[in.groups])
	fill := append([]int32(nil), in.apOff[:in.groups]...)
	for i := range last {
		last[i] = -1
	}
	for i, id := range in.gid {
		if b := int32(i / bs); last[id] != b {
			last[id] = b
			in.apBatch[fill[id]] = b
			fill[id]++
		}
	}
}

// liveIn reports whether group id appears in some batch of [lo, hi).
func (in *inputs) liveIn(id uint32, lo, hi int) bool {
	aps := in.apBatch[in.apOff[id]:in.apOff[id+1]]
	// First appearance ≥ lo, by binary search.
	i, j := 0, len(aps)
	for i < j {
		m := (i + j) / 2
		if int(aps[m]) < lo {
			i = m + 1
		} else {
			j = m
		}
	}
	return i < len(aps) && int(aps[i]) < hi
}

// distinctFrac is the share of points that opened a new group.
func (in *inputs) distinctFrac(batches int) float64 {
	return float64(in.distinctBefore[batches]) / float64(batches*in.w.batch)
}

// expiredFrac is the share of the groups seen in batches [0, batches)
// that have left the window by the end of batch batches-1: their last
// stamp is at least one window width behind the final stamp.
func (in *inputs) expiredFrac(batches int) float64 {
	if in.w.window == 0 || batches == 0 {
		return 0
	}
	live := 0
	for id := range in.groups {
		if int(in.firstBatch[id]) < batches && in.liveIn(uint32(id), batches-int(in.w.window), batches) {
			live++
		}
	}
	seen := int(in.distinctBefore[batches])
	return float64(seen-live) / float64(seen)
}

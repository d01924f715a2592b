package core

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/geom"
	"repro/internal/window"
)

// windowSamplerMagic heads the binary wire form of a WindowSampler
// (format 1); blobs without it decode through the retired gob format.
const windowSamplerMagic = "l0w1"

// windowSamplerState is the gob wire form of a WindowSampler — the
// retired v1 format, kept for decoding old blobs (nothing writes it any
// more). As with samplerState, only dynamic state is stored: grid, hash
// function and RNG are re-derived from Options.Seed, and cached cell
// keys and adjacency lists are recomputed on load. The level structure itself is derived from the
// window width, so the per-level entry lists are the whole expiry state.
type windowSamplerState struct {
	Opts        Options
	Win         window.Window
	N           int64
	Now         int64
	Latest      []float64
	LatestStamp int64
	Overflow    int
	SplitFail   int
	Peak        int
	Levels      [][]windowEntryState
}

// windowEntryState is one stored candidate group: entryState plus the
// sliding-window augmentation (latest point, expiry stamps, and the
// per-group window reservoir with its random priorities).
type windowEntryState struct {
	Rep       []float64
	Accepted  bool
	Stamp     int64
	Count     int64
	Pick      []float64
	Last      []float64
	LastStamp int64
	Wres      []windowPickState
}

// windowPickState is one window-reservoir skyline item.
type windowPickState struct {
	Stamp int64
	Prio  uint64
	P     []float64
}

// checkWindowSerializable rejects the two states with no wire format:
// sequence windows and custom spaces.
func (ws *WindowSampler) checkWindowSerializable() error {
	if ws.win.Kind != window.Time {
		return fmt.Errorf("%w: sequence-window samplers have no wire format (see docs/engine.md \"Limitations\")", ErrNotSerializable)
	}
	if ws.opts.Space != nil {
		return fmt.Errorf("%w: sketch was built with a custom Space", ErrNotSerializable)
	}
	return nil
}

// MarshalBinary serializes the window sampler for checkpointing or
// shipping, in the length-prefixed binary format (magic "l0w1"); the
// counterpart is UnmarshalWindowSampler, which also still reads the
// retired gob format. Only time-based windows have a wire format: a
// sequence window's expiry state is keyed to one stream's arrival order
// and cannot be restored into any other context (see docs/engine.md
// "Limitations"). Samplers built with a custom Space are not
// serializable either.
func (ws *WindowSampler) MarshalBinary() ([]byte, error) {
	if err := ws.checkWindowSerializable(); err != nil {
		return nil, err
	}
	w := binWriter{buf: make([]byte, 0, 1024)}
	w.buf = append(w.buf, windowSamplerMagic...)
	w.options(ws.opts)
	w.u8(byte(ws.win.Kind))
	w.varint(ws.win.W)
	w.varint(ws.n)
	w.varint(ws.now)
	if len(ws.latest) > 0 {
		w.u8(1)
		w.coords(ws.latest)
	} else {
		w.u8(0)
	}
	w.varint(ws.latestStamp)
	w.uvarint(uint64(ws.overflowErrors))
	w.uvarint(uint64(ws.splitFailures))
	w.uvarint(uint64(ws.space.Peak()))
	w.uvarint(uint64(len(ws.levels)))
	for _, lv := range ws.levels {
		w.uvarint(uint64(lv.order.Len()))
		for el := lv.order.Front(); el != nil; el = el.Next() {
			e := el.Value.(*entry)
			var flags byte
			if e.accepted {
				flags |= 1
			}
			if len(e.pick) > 0 {
				flags |= 2
			}
			if len(e.last) > 0 {
				flags |= 4
			}
			w.u8(flags)
			w.varint(e.stamp)
			w.varint(e.count)
			w.coords(e.rep)
			if len(e.pick) > 0 {
				w.coords(e.pick)
			}
			if len(e.last) > 0 {
				w.coords(e.last)
			}
			w.varint(e.lastStamp)
			w.uvarint(uint64(len(e.wres)))
			for _, wp := range e.wres {
				w.varint(wp.stamp)
				w.u64(wp.prio)
				w.coords(wp.p)
			}
		}
	}
	return w.buf, nil
}

// UnmarshalWindowSampler reconstructs a WindowSampler from MarshalBinary
// output — the binary format, or the retired gob format for blobs
// written before it. Grid, hash function and query RNG are re-derived
// from the serialized seed, so the restored sampler ingests identically
// to the original; query randomness is statistically equivalent rather
// than bit-identical, matching UnmarshalSampler.
func UnmarshalWindowSampler(data []byte) (*WindowSampler, error) {
	if bytes.HasPrefix(data, []byte(windowSamplerMagic)) {
		return unmarshalWindowSamplerBinary(data[len(windowSamplerMagic):])
	}
	var st windowSamplerState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return nil, fmt.Errorf("core: decoding window sketch: %w", err)
	}
	return windowSamplerFromState(st)
}

// unmarshalWindowSamplerBinary decodes the binary payload after the magic.
func unmarshalWindowSamplerBinary(data []byte) (*WindowSampler, error) {
	r := binReader{data: data}
	st := windowSamplerState{Opts: r.options()}
	if r.err == nil && st.Opts.Dim < 1 {
		return nil, fmt.Errorf("core: corrupt window sketch: dimension %d", st.Opts.Dim)
	}
	st.Win = window.Window{Kind: window.Kind(r.u8()), W: r.varint()}
	st.N = r.varint()
	st.Now = r.varint()
	if r.u8() != 0 {
		st.Latest = r.coords(st.Opts.Dim)
	}
	st.LatestStamp = r.varint()
	st.Overflow = int(r.uvarint())
	st.SplitFail = int(r.uvarint())
	st.Peak = int(r.uvarint())
	levels, err := r.count(1)
	if err != nil {
		return nil, err
	}
	st.Levels = make([][]windowEntryState, levels)
	for l := range st.Levels {
		n, err := r.count(1 + 1 + 1 + 8*st.Opts.Dim)
		if err != nil {
			return nil, err
		}
		states := make([]windowEntryState, n)
		for i := range states {
			flags := r.u8()
			es := windowEntryState{
				Accepted: flags&1 != 0,
				Stamp:    r.varint(),
				Count:    r.varint(),
				Rep:      r.coords(st.Opts.Dim),
			}
			if flags&2 != 0 {
				es.Pick = r.coords(st.Opts.Dim)
			}
			if flags&4 != 0 {
				es.Last = r.coords(st.Opts.Dim)
			}
			es.LastStamp = r.varint()
			wn, err := r.count(1 + 8 + 8*st.Opts.Dim)
			if err != nil {
				return nil, err
			}
			if wn > 0 {
				es.Wres = make([]windowPickState, wn)
				for j := range es.Wres {
					es.Wres[j] = windowPickState{
						Stamp: r.varint(),
						Prio:  r.u64(),
						P:     r.coords(st.Opts.Dim),
					}
				}
			}
			states[i] = es
		}
		st.Levels[l] = states
	}
	if r.err != nil {
		return nil, fmt.Errorf("core: decoding window sketch: %w", r.err)
	}
	return windowSamplerFromState(st)
}

// windowSamplerFromState rebuilds a live WindowSampler from either wire
// form.
func windowSamplerFromState(st windowSamplerState) (*WindowSampler, error) {
	if st.Win.Kind != window.Time {
		return nil, fmt.Errorf("core: corrupt window sketch: kind %v is not serializable", st.Win.Kind)
	}
	ws, err := NewWindowSampler(st.Opts, st.Win)
	if err != nil {
		return nil, fmt.Errorf("core: restoring window sketch: %w", err)
	}
	if len(st.Levels) != len(ws.levels) {
		return nil, fmt.Errorf("core: corrupt window sketch: %d levels for window width %d (want %d)",
			len(st.Levels), st.Win.W, len(ws.levels))
	}
	ws.n = st.N
	ws.now = st.Now
	if len(st.Latest) > 0 {
		ws.latest = geom.Point(st.Latest)
	}
	ws.latestStamp = st.LatestStamp
	ws.overflowErrors = st.Overflow
	ws.splitFailures = st.SplitFail
	for l, states := range st.Levels {
		lv := ws.levels[l]
		lv.now = st.Now
		for _, es := range states {
			if len(es.Rep) != ws.opts.Dim {
				return nil, fmt.Errorf("core: corrupt window sketch: entry dimension %d, want %d",
					len(es.Rep), ws.opts.Dim)
			}
			rep := geom.Point(es.Rep)
			e := &entry{
				rep:       rep,
				cell:      ws.spc.Cell(rep),
				adj:       ws.spc.Adjacent(rep),
				accepted:  es.Accepted,
				stamp:     es.Stamp,
				count:     es.Count,
				pick:      es.Pick,
				last:      es.Last,
				lastStamp: es.LastStamp,
			}
			if len(es.Wres) > 0 {
				e.wres = make([]windowPick, len(es.Wres))
				for i, wp := range es.Wres {
					e.wres[i] = windowPick{stamp: wp.Stamp, prio: wp.Prio, p: wp.P}
				}
			}
			// Re-validate the classification against the re-derived hash at
			// this level's rate: a sketch serialized under different options
			// fails here instead of silently mis-sampling.
			own := ws.ls.SampledAt(uint64(e.cell), lv.r)
			if e.accepted != own || (!own && !ws.anySampledAt(e.adj, lv.r)) {
				return nil, fmt.Errorf("core: window sketch inconsistent with options (level %d entry %v)", l, rep)
			}
			lv.insert(e)
		}
	}
	ws.trackSpace()
	if st.Peak > ws.space.peak {
		ws.space.peak = st.Peak
	}
	return ws, nil
}

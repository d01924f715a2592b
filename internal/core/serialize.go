package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"

	"repro/internal/geom"
)

// ErrNotSerializable is wrapped by MarshalBinary when the sketch has no
// wire format (currently: sketches built with a custom Space, which is
// not part of the wire format and could not be re-derived on load).
var ErrNotSerializable = errors.New("core: not serializable")

// samplerMagic heads the binary wire form of a Sampler (format 1). Blobs
// without it decode through the retired gob format, so checkpoints
// written before the binary format still restore.
const samplerMagic = "l0s1"

// samplerState is the gob wire form of a Sampler — the retired v1
// format, kept so old checkpoints keep decoding (nothing writes it any
// more). Only dynamic state is stored: the grid, hash function and RNG
// are all derived deterministically from Options.Seed, so Options plus
// the entry list reconstructs the sketch exactly. Cached cell keys and
// adjacency lists are recomputed on load.
type samplerState struct {
	Opts    Options
	R       uint64
	N       int64
	Rehash  int
	Peak    int
	Entries []entryState
}

type entryState struct {
	Rep      []float64
	Accepted bool
	Stamp    int64
	Count    int64
	Pick     []float64
}

// options writes the serializable subset of Options. Space is excluded
// by the callers' ErrNotSerializable guard.
func (w *binWriter) options(o Options) {
	w.f64(o.Alpha)
	w.uvarint(uint64(o.Dim))
	w.uvarint(uint64(o.StreamBound))
	w.uvarint(uint64(o.Kappa))
	w.uvarint(uint64(o.K))
	w.u64(o.Seed)
	w.u8(byte(o.Hash))
	var flags byte
	if o.HighDim {
		flags |= 1
	}
	if o.RandomRepresentative {
		flags |= 2
	}
	w.u8(flags)
	w.f64(o.GridSide)
}

// options reads the counterpart of binWriter.options.
func (r *binReader) options() Options {
	var o Options
	o.Alpha = r.f64()
	o.Dim = int(r.uvarint())
	o.StreamBound = int(r.uvarint())
	o.Kappa = int(r.uvarint())
	o.K = int(r.uvarint())
	o.Seed = r.u64()
	o.Hash = HashKind(r.u8())
	flags := r.u8()
	o.HighDim = flags&1 != 0
	o.RandomRepresentative = flags&2 != 0
	o.GridSide = r.f64()
	return o
}

// MarshalBinary serializes the sketch for checkpointing or shipping to
// another process, in the length-prefixed binary format (magic "l0s1").
// The counterpart is UnmarshalSampler, which also still reads the
// retired gob format. Sketches built with a custom Space cannot be
// serialized: the space is not part of the wire format and could not be
// re-derived on load.
func (s *Sampler) MarshalBinary() ([]byte, error) {
	if s.opts.Space != nil {
		return nil, fmt.Errorf("%w: sketch was built with a custom Space", ErrNotSerializable)
	}
	w := binWriter{buf: make([]byte, 0, len(samplerMagic)+64+len(s.entries)*(8*2*s.opts.Dim+16))}
	w.buf = append(w.buf, samplerMagic...)
	w.options(s.opts)
	w.u64(s.r)
	w.varint(s.n)
	w.uvarint(uint64(s.rehash))
	w.uvarint(uint64(s.space.Peak()))
	w.uvarint(uint64(len(s.entries)))
	for _, e := range s.entries {
		var flags byte
		if e.accepted {
			flags |= 1
		}
		if len(e.pick) > 0 {
			flags |= 2
		}
		w.u8(flags)
		w.varint(e.stamp)
		w.varint(e.count)
		w.coords(e.rep)
		if len(e.pick) > 0 {
			w.coords(e.pick)
		}
	}
	return w.buf, nil
}

// UnmarshalSampler reconstructs a Sampler from MarshalBinary output —
// the binary format, or the retired gob format for blobs written before
// it. The query RNG is re-derived from the seed and the number of
// processed points, so a restored sketch gives statistically equivalent
// (not bit-identical) query randomness.
func UnmarshalSampler(data []byte) (*Sampler, error) {
	if bytes.HasPrefix(data, []byte(samplerMagic)) {
		return unmarshalSamplerBinary(data[len(samplerMagic):])
	}
	var st samplerState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return nil, fmt.Errorf("core: decoding sketch: %w", err)
	}
	return samplerFromState(st)
}

// unmarshalSamplerBinary decodes the binary payload after the magic.
func unmarshalSamplerBinary(data []byte) (*Sampler, error) {
	r := binReader{data: data}
	st := samplerState{Opts: r.options()}
	st.R = r.u64()
	st.N = r.varint()
	st.Rehash = int(r.uvarint())
	st.Peak = int(r.uvarint())
	n, err := r.count(1 + 1 + 1 + 8*st.Opts.Dim)
	if err != nil {
		return nil, err
	}
	if st.Opts.Dim < 1 {
		return nil, fmt.Errorf("core: corrupt sketch: dimension %d", st.Opts.Dim)
	}
	st.Entries = make([]entryState, n)
	for i := range st.Entries {
		flags := r.u8()
		es := entryState{
			Accepted: flags&1 != 0,
			Stamp:    r.varint(),
			Count:    r.varint(),
			Rep:      r.coords(st.Opts.Dim),
		}
		if flags&2 != 0 {
			es.Pick = r.coords(st.Opts.Dim)
		}
		st.Entries[i] = es
	}
	if r.err != nil {
		return nil, fmt.Errorf("core: decoding sketch: %w", r.err)
	}
	return samplerFromState(st)
}

// samplerFromState rebuilds a live Sampler from either wire form.
func samplerFromState(st samplerState) (*Sampler, error) {
	if st.R == 0 || st.R&(st.R-1) != 0 {
		return nil, fmt.Errorf("core: corrupt sketch: R=%d is not a power of two", st.R)
	}
	s, err := NewSampler(st.Opts)
	if err != nil {
		return nil, fmt.Errorf("core: restoring sketch: %w", err)
	}
	s.r = st.R
	s.n = st.N
	s.rehash = st.Rehash
	for _, es := range st.Entries {
		if len(es.Rep) != s.opts.Dim {
			return nil, fmt.Errorf("core: corrupt sketch: entry dimension %d, want %d",
				len(es.Rep), s.opts.Dim)
		}
		rep := geom.Point(es.Rep)
		e := &entry{
			rep:      rep,
			cell:     s.spc.Cell(rep),
			adj:      s.spc.Adjacent(rep),
			accepted: es.Accepted,
			stamp:    es.Stamp,
			count:    es.Count,
			pick:     es.Pick,
		}
		// Re-validate the classification against the (re-derived) hash: a
		// sketch from different options would fail here rather than
		// silently mis-sample.
		own := s.ls.SampledAt(uint64(e.cell), s.r)
		if e.accepted != own {
			return nil, fmt.Errorf("core: sketch inconsistent with options (entry %v)", rep)
		}
		s.entries = append(s.entries, e)
		s.index.add(e)
		s.space.add(e.words(s.opts.RandomRepresentative, false))
		if e.accepted {
			s.numAcc++
		}
	}
	if st.Peak > s.space.peak {
		s.space.peak = st.Peak
	}
	return s, nil
}

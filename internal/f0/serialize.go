package f0

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"

	"repro/internal/core"
)

// medianMagic and windowEstimatorMagic head the binary wire forms of the
// estimator stacks (format 1). Blobs without the magic decode through
// the retired gob format, so old checkpoints keep restoring.
const (
	medianMagic          = "f0m1"
	windowEstimatorMagic = "f0w1"
)

// medianState is the gob wire form of a Median estimator — the retired
// v1 format, kept for decoding old blobs (nothing writes it any more):
// the per-copy samplers carry their own options (including the derived
// seeds), so only epsilon needs to be stored alongside the copy blobs.
type medianState struct {
	Eps    float64
	Copies [][]byte
}

// appendBlobs appends a uvarint count followed by length-prefixed blobs.
func appendBlobs(dst []byte, blobs [][]byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(blobs)))
	for _, b := range blobs {
		dst = binary.AppendUvarint(dst, uint64(len(b)))
		dst = append(dst, b...)
	}
	return dst
}

// readBlobs reads the counterpart of appendBlobs, returning sub-slices
// of data (no copies).
func readBlobs(data []byte) ([][]byte, error) {
	n, sz := binary.Uvarint(data)
	if sz <= 0 || n > uint64(len(data)) {
		return nil, fmt.Errorf("f0: truncated copy list")
	}
	data = data[sz:]
	out := make([][]byte, 0, n)
	for i := uint64(0); i < n; i++ {
		l, sz := binary.Uvarint(data)
		if sz <= 0 || l > uint64(len(data)-sz) {
			return nil, fmt.Errorf("f0: truncated copy %d", i)
		}
		out = append(out, data[sz:sz+int(l)])
		data = data[sz+int(l):]
	}
	return out, nil
}

// MarshalBinary serializes the estimator stack for checkpointing, in the
// length-prefixed binary format (magic "f0m1"); the counterpart is
// UnmarshalMedian, which also still reads the retired gob format.
// Estimators built over a custom Space are not serializable (see
// core.Sampler.MarshalBinary).
func (m *Median) MarshalBinary() ([]byte, error) {
	blobs := make([][]byte, len(m.copies))
	for i, c := range m.copies {
		blob, err := c.s.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("f0: encoding copy %d: %w", i, err)
		}
		blobs[i] = blob
	}
	out := append([]byte(nil), medianMagic...)
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(m.copies[0].eps))
	return appendBlobs(out, blobs), nil
}

// windowEstimatorState is the gob wire form of a WindowEstimator — the
// retired v1 format, kept for decoding old blobs: the per-copy window
// samplers carry their own options (including derived seeds) and window,
// so the copy blobs are the whole state.
type windowEstimatorState struct {
	Copies [][]byte
}

// MarshalBinary serializes the window-estimator stack for checkpointing,
// in the length-prefixed binary format (magic "f0w1"); the counterpart
// is UnmarshalWindowEstimator, which also still reads the retired gob
// format. Only time-based windows have a wire format (see
// core.WindowSampler.MarshalBinary).
func (we *WindowEstimator) MarshalBinary() ([]byte, error) {
	blobs := make([][]byte, len(we.copies))
	for i, c := range we.copies {
		blob, err := c.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("f0: encoding window copy %d: %w", i, err)
		}
		blobs[i] = blob
	}
	return appendBlobs(append([]byte(nil), windowEstimatorMagic...), blobs), nil
}

// UnmarshalWindowEstimator reconstructs a WindowEstimator from
// MarshalBinary output (binary or retired gob format).
func UnmarshalWindowEstimator(data []byte) (*WindowEstimator, error) {
	var blobs [][]byte
	if bytes.HasPrefix(data, []byte(windowEstimatorMagic)) {
		var err error
		if blobs, err = readBlobs(data[len(windowEstimatorMagic):]); err != nil {
			return nil, fmt.Errorf("f0: decoding window estimator: %w", err)
		}
	} else {
		var st windowEstimatorState
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
			return nil, fmt.Errorf("f0: decoding window estimator: %w", err)
		}
		blobs = st.Copies
	}
	if len(blobs) == 0 {
		return nil, fmt.Errorf("f0: corrupt window estimator: no copies")
	}
	we := &WindowEstimator{copies: make([]*core.WindowSampler, len(blobs))}
	for i, blob := range blobs {
		ws, err := core.UnmarshalWindowSampler(blob)
		if err != nil {
			return nil, fmt.Errorf("f0: decoding window copy %d: %w", i, err)
		}
		if i > 0 && ws.Window() != we.copies[0].Window() {
			return nil, fmt.Errorf("f0: corrupt window estimator: copy %d window %v != copy 0 window %v",
				i, ws.Window(), we.copies[0].Window())
		}
		we.copies[i] = ws
	}
	return we, nil
}

// UnmarshalMedian reconstructs a Median from MarshalBinary output
// (binary or retired gob format).
func UnmarshalMedian(data []byte) (*Median, error) {
	var (
		eps   float64
		blobs [][]byte
	)
	if bytes.HasPrefix(data, []byte(medianMagic)) {
		rest := data[len(medianMagic):]
		if len(rest) < 8 {
			return nil, fmt.Errorf("f0: truncated median header")
		}
		eps = math.Float64frombits(binary.LittleEndian.Uint64(rest))
		var err error
		if blobs, err = readBlobs(rest[8:]); err != nil {
			return nil, fmt.Errorf("f0: decoding median: %w", err)
		}
	} else {
		var st medianState
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
			return nil, fmt.Errorf("f0: decoding median: %w", err)
		}
		eps, blobs = st.Eps, st.Copies
	}
	if len(blobs) == 0 {
		return nil, fmt.Errorf("f0: corrupt median: no copies")
	}
	if !(eps > 0 && eps <= 1) {
		return nil, fmt.Errorf("f0: corrupt median: epsilon %g", eps)
	}
	m := &Median{copies: make([]*InfiniteEstimator, len(blobs))}
	for i, blob := range blobs {
		s, err := core.UnmarshalSampler(blob)
		if err != nil {
			return nil, fmt.Errorf("f0: decoding copy %d: %w", i, err)
		}
		m.copies[i] = &InfiniteEstimator{s: s, eps: eps}
	}
	return m, nil
}

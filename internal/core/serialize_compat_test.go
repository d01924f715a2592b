package core

// Equivalence suite for the two sampler wire formats: the current
// length-prefixed binary format and the retired gob format must restore
// identical sketch state, and UnmarshalSampler/UnmarshalWindowSampler
// must keep accepting both. Nothing writes gob any more, so the gob side
// is the committed version-1 fixtures of pkg/sketch/testdata — written
// by the retired encoders and never regenerated.

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/geom"
)

// compatStream feeds n deterministic well-separated groups with some
// duplicates.
func compatStream(n int) []geom.Point {
	pts := make([]geom.Point, 0, 2*n)
	for i := 0; i < n; i++ {
		p := geom.Point{float64(i%32) * 8, float64(i/32) * 8}
		pts = append(pts, p, geom.Point{p[0] + 0.2, p[1] - 0.1})
	}
	return pts
}

// v1Payload reads a committed version-1 sketch envelope and returns its
// gob payload: the envelope is the 4-byte magic "skch", the version byte
// (1 for the gob era) and the kind byte.
func v1Payload(t *testing.T, name string) []byte {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "..", "pkg", "sketch", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) < 6 || string(blob[:4]) != "skch" || blob[4] != 1 {
		t.Fatalf("%s is not a version-1 envelope — fixtures must never be regenerated", name)
	}
	return blob[6:]
}

// TestSamplerGobBinaryEquivalence restores a gob-era sampler, re-encodes
// it in the binary format, and requires both restores to agree on every
// observable.
func TestSamplerGobBinaryEquivalence(t *testing.T) {
	gobBlob := v1Payload(t, "envelope_v1_l0.bin")
	if bytes.HasPrefix(gobBlob, []byte(samplerMagic)) {
		t.Fatal("fixture payload carries the binary magic, want gob")
	}
	fromGob, err := UnmarshalSampler(gobBlob)
	if err != nil {
		t.Fatalf("gob restore: %v", err)
	}
	binBlob, err := fromGob.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := UnmarshalSampler(binBlob)
	if err != nil {
		t.Fatalf("binary restore: %v", err)
	}
	for _, pair := range []struct {
		name string
		a, b any
	}{
		{"Processed", fromGob.Processed(), fromBin.Processed()},
		{"R", fromGob.R(), fromBin.R()},
		{"Rehashes", fromGob.Rehashes(), fromBin.Rehashes()},
		{"AcceptSize", fromGob.AcceptSize(), fromBin.AcceptSize()},
		{"RejectSize", fromGob.RejectSize(), fromBin.RejectSize()},
		{"SpaceWords", fromGob.SpaceWords(), fromBin.SpaceWords()},
		{"PeakSpaceWords", fromGob.PeakSpaceWords(), fromBin.PeakSpaceWords()},
		{"AcceptedReps", fromGob.AcceptedReps(), fromBin.AcceptedReps()},
		{"RejectedReps", fromGob.RejectedReps(), fromBin.RejectedReps()},
	} {
		if !reflect.DeepEqual(pair.a, pair.b) {
			t.Fatalf("%s differs between formats: %v vs %v", pair.name, pair.a, pair.b)
		}
	}

	// Post-restore ingestion stays in lockstep across formats.
	extra := geom.Point{999, 999}
	fromGob.Process(extra)
	fromBin.Process(extra)
	if !reflect.DeepEqual(fromGob.AcceptedReps(), fromBin.AcceptedReps()) {
		t.Fatal("post-restore ingestion diverged between formats")
	}
}

// TestWindowSamplerGobBinaryEquivalence is the window-family counterpart,
// covering the expiry stamps, level structure, and reservoir skylines.
func TestWindowSamplerGobBinaryEquivalence(t *testing.T) {
	gobBlob := v1Payload(t, "envelope_v1_windowl0.bin")
	if bytes.HasPrefix(gobBlob, []byte(windowSamplerMagic)) {
		t.Fatal("fixture payload carries the binary magic, want gob")
	}
	fromGob, err := UnmarshalWindowSampler(gobBlob)
	if err != nil {
		t.Fatalf("gob restore: %v", err)
	}
	binBlob, err := fromGob.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := UnmarshalWindowSampler(binBlob)
	if err != nil {
		t.Fatalf("binary restore: %v", err)
	}
	if fromGob.Now() != fromBin.Now() || fromGob.Processed() != fromBin.Processed() {
		t.Fatalf("clock/count differ: now %d vs %d, n %d vs %d",
			fromGob.Now(), fromBin.Now(), fromGob.Processed(), fromBin.Processed())
	}
	if !reflect.DeepEqual(fromGob.AcceptSizes(), fromBin.AcceptSizes()) {
		t.Fatalf("accept sizes differ: %v vs %v", fromGob.AcceptSizes(), fromBin.AcceptSizes())
	}
	if fromGob.MaxNonEmptyLevel() != fromBin.MaxNonEmptyLevel() {
		t.Fatalf("max level differs: %d vs %d", fromGob.MaxNonEmptyLevel(), fromBin.MaxNonEmptyLevel())
	}
	if fromGob.SpaceWords() != fromBin.SpaceWords() {
		t.Fatalf("space differs: %d vs %d", fromGob.SpaceWords(), fromBin.SpaceWords())
	}
}

// TestUnmarshalSamplerBinaryHugeDim pins that a crafted blob carrying an
// absurd dimension errors instead of panicking: 8*Dim must not overflow
// past the decoder's bounds checks into make().
func TestUnmarshalSamplerBinaryHugeDim(t *testing.T) {
	// Hand-encode a blob whose options carry a poisoned dimension,
	// bypassing normalize as an attacker would.
	w := binWriter{}
	w.buf = append(w.buf, samplerMagic...)
	w.options(Options{Alpha: 1, Dim: 1 << 61, StreamBound: 1 << 10, Kappa: 4, K: 1, Seed: 3, GridSide: 0.5})
	w.u64(1)     // R
	w.varint(1)  // n
	w.uvarint(0) // rehash
	w.uvarint(0) // peak
	w.uvarint(1) // one entry
	w.u8(0)      // flags
	w.varint(1)  // stamp
	w.varint(1)  // count
	w.f64(0)     // far too few coordinates for Dim=1<<61
	if _, err := UnmarshalSampler(w.buf); err == nil {
		t.Fatal("huge-dimension blob decoded without error")
	}
}

// TestUnmarshalSamplerBinaryTruncated pins that truncating a binary blob
// at any prefix errors instead of panicking or silently decoding.
func TestUnmarshalSamplerBinaryTruncated(t *testing.T) {
	opts := Options{Alpha: 1, Dim: 2, Seed: 41, StreamBound: 1 << 10}
	s, err := NewSampler(opts)
	if err != nil {
		t.Fatal(err)
	}
	s.ProcessBatch(compatStream(50))
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalSampler(blob); err != nil {
		t.Fatal(err)
	}
	for cut := len(blob) - 1; cut > len(samplerMagic); cut -= 7 {
		if _, err := UnmarshalSampler(blob[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d decoded without error", cut, len(blob))
		}
	}
}

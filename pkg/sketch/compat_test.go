package sketch

// Backward-compatibility suite for the serialization format change: the
// envelope moved from version 1 (gob payloads) to version 2 (the
// hand-rolled binary payloads), and Deserialize must keep reading both.
// The testdata fixtures were written by the version-1 code and are
// immutable; envelope_v1_manifest.json records the estimates the sketches
// held when they were serialized.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// v1Manifest loads the recorded expectations for the v1 fixtures.
func v1Manifest(t *testing.T) map[string]float64 {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", "envelope_v1_manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	m := map[string]float64{}
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func readFixture(t *testing.T, name string) []byte {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestDeserializeV1Fixtures pins that envelopes written by the retired
// gob format (envelope version 1) still deserialize to sketches holding
// their recorded state, and that re-serializing them produces a current
// envelope that round-trips to the same state — the upgrade path for
// old checkpoints.
func TestDeserializeV1Fixtures(t *testing.T) {
	manifest := v1Manifest(t)
	cases := []struct {
		file string
		kind Kind
		want float64 // expected estimate; NaN-free manifest keys only
	}{
		{"envelope_v1_l0.bin", KindL0, manifest["l0"]},
		{"envelope_v1_f0.bin", KindF0, manifest["f0"]},
		{"envelope_v1_windowf0.bin", KindWindowF0, manifest["windowf0"]},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			blob := readFixture(t, tc.file)
			if blob[4] != 1 {
				t.Fatalf("fixture envelope version %d, want 1 — fixtures must never be regenerated", blob[4])
			}
			if k, err := KindOf(blob); err != nil || k != tc.kind {
				t.Fatalf("KindOf = %v, %v; want %v", k, err, tc.kind)
			}
			sk, err := Deserialize(blob)
			if err != nil {
				t.Fatalf("deserializing v1 envelope: %v", err)
			}
			res, err := sk.Query()
			if err != nil {
				t.Fatal(err)
			}
			if res.Estimate != tc.want {
				t.Fatalf("restored estimate %g, want %g", res.Estimate, tc.want)
			}
			// Upgrade path: the restored sketch re-serializes as a current
			// envelope with the same state.
			blob2, err := sk.Serialize()
			if err != nil {
				t.Fatal(err)
			}
			if blob2[4] != envelopeVersion {
				t.Fatalf("re-serialized envelope version %d, want %d", blob2[4], envelopeVersion)
			}
			sk2, err := Deserialize(blob2)
			if err != nil {
				t.Fatal(err)
			}
			res2, err := sk2.Query()
			if err != nil {
				t.Fatal(err)
			}
			if res2.Estimate != tc.want {
				t.Fatalf("upgraded estimate %g, want %g", res2.Estimate, tc.want)
			}
		})
	}
}

// TestDeserializeV1WindowL0Fixture covers the sample-only window family:
// the v1 window envelope restores with its clock intact and still
// answers queries.
func TestDeserializeV1WindowL0Fixture(t *testing.T) {
	manifest := v1Manifest(t)
	blob := readFixture(t, "envelope_v1_windowl0.bin")
	sk, err := Deserialize(blob)
	if err != nil {
		t.Fatalf("deserializing v1 windowl0: %v", err)
	}
	w, ok := sk.(*WindowL0)
	if !ok {
		t.Fatalf("deserialized %T, want *WindowL0", sk)
	}
	if got := float64(w.Now()); got != manifest["windowl0_now"] {
		t.Fatalf("restored clock %g, want %g", got, manifest["windowl0_now"])
	}
	res, err := w.Query()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sample) != 2 {
		t.Fatalf("restored window sample %v", res.Sample)
	}
}

// TestV1GobBlobsDecodeInsideCurrentEnvelope pins the payload sniffing:
// a gob payload wrapped in a current (version 2) envelope, and a binary
// payload wrapped in a v1 envelope, both decode — the envelope version
// advertises the writer, the per-format magic decides the codec.
func TestV1GobBlobsDecodeInsideCurrentEnvelope(t *testing.T) {
	want := v1Manifest(t)["l0"]
	gobPayload := readFixture(t, "envelope_v1_l0.bin")[envelopeHeaderLen:]
	sk, err := Deserialize(encodeEnvelope(KindL0, gobPayload))
	if err != nil {
		t.Fatalf("gob payload under v2 envelope: %v", err)
	}
	got, err := sk.Query()
	if err != nil {
		t.Fatal(err)
	}
	if got.Estimate != want {
		t.Fatalf("estimate %g, want %g", got.Estimate, want)
	}

	binPayload, err := sk.(*L0).Sampler().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	v1env := append([]byte(nil), envelopeMagic[:]...)
	v1env = append(v1env, 1, byte(KindL0))
	v1env = append(v1env, binPayload...)
	fromBin, err := Deserialize(v1env)
	if err != nil {
		t.Fatalf("binary payload under v1 envelope: %v", err)
	}
	if got, err := fromBin.Query(); err != nil || got.Estimate != want {
		t.Fatalf("binary re-encoding estimates %v (err %v), want %g", got.Estimate, err, want)
	}

	// Future versions stay rejected.
	bad := append([]byte(nil), envelopeMagic[:]...)
	bad = append(bad, envelopeVersion+1, byte(KindL0))
	bad = append(bad, binPayload...)
	if _, err := Deserialize(bad); err == nil {
		t.Fatal("envelope version beyond current was accepted")
	}
}

// TestWindowEstimatorV1Gob restores the windowed estimator stack from
// its gob-era payload inside a current envelope, re-encodes it in the
// binary format, and requires both restores to hold the recorded
// estimate.
func TestWindowEstimatorV1Gob(t *testing.T) {
	want := v1Manifest(t)["windowf0"]
	gobPayload := readFixture(t, "envelope_v1_windowf0.bin")[envelopeHeaderLen:]
	fromGob, err := Deserialize(encodeEnvelope(KindWindowF0, gobPayload))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := fromGob.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := Deserialize(blob)
	if err != nil {
		t.Fatal(err)
	}
	for name, sk := range map[string]Sketch{"gob": fromGob, "binary": fromBin} {
		got, err := sk.Query()
		if err != nil {
			t.Fatal(err)
		}
		if got.Estimate != want {
			t.Fatalf("%s-restored estimate %g, want %g", name, got.Estimate, want)
		}
	}
}

package core

// Native fuzz targets for the binary index loader: whatever bytes come
// in — truncations of a valid index, bit flips, retired generations,
// garbage — LoadIndex must return an error, never panic and never
// commit unbounded memory.

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"kdash/internal/gen"
	"kdash/internal/reorder"
)

// fuzzIndexBytes is a small valid saved index: the seeds the mutator
// starts from are the valid bytes plus truncations and targeted
// corruptions.
func fuzzIndexBytes(f *testing.F) []byte {
	f.Helper()
	g := gen.ErdosRenyi(24, 90, 7)
	ix, err := BuildIndex(g, BuildOptions{Reorder: reorder.Hybrid, Seed: 7})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzLoadIndex drives LoadIndex with bytes that are not a container:
// a retired v1 stream's opening fields, whole and cut short, plus
// garbage and a length-prefix bomb. A retired generation is refused on
// sight, so every input must come back as an error.
// Run with `go test -fuzz=FuzzLoadIndex ./internal/core`.
func FuzzLoadIndex(f *testing.F) {
	v1 := []byte("KDASHIX\x01")
	v1 = binary.LittleEndian.AppendUint64(v1, 24)
	v1 = binary.LittleEndian.AppendUint64(v1, math.Float64bits(0.95))
	f.Add(v1)
	f.Add(v1[:len(v1)/2])
	f.Add(v1[:9])
	f.Add([]byte("KDASHIX\x01"))
	f.Add([]byte("not an index"))
	f.Add([]byte{})
	f.Add(append(v1[:16:16], 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f))

	f.Fuzz(fuzzLoadOne)
}

// FuzzLoadIndexV3 drives LoadIndex with mutations of a valid container:
// header and table corruption is mmapio's to reject, section shape and
// content corruption is indexFromContainer's — either way the contract
// is an error, no panic and no unbounded commit.
// Run with `go test -fuzz=FuzzLoadIndexV3 ./internal/core`.
func FuzzLoadIndexV3(f *testing.F) {
	valid := fuzzIndexBytes(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated mid-section
	f.Add(valid[:40])           // header + part of the table
	f.Add(valid[:8])            // magic only
	// Flip one byte inside the first data section (checksum mismatch).
	flip := append([]byte{}, valid...)
	flip[4096] ^= 0xff
	f.Add(flip)
	// Flip a table byte (table checksum mismatch).
	flipTable := append([]byte{}, valid...)
	flipTable[32] ^= 0xff
	f.Add(flipTable)

	f.Fuzz(fuzzLoadOne)
}

// fuzzLoadOne is the shared oracle of both loader fuzz targets.
func fuzzLoadOne(t *testing.T, data []byte) {
	ix, err := LoadIndex(bytes.NewReader(data))
	if err != nil {
		return // rejection is the expected outcome for corrupt input
	}
	// The rare accepted input must yield a queryable index.
	if ix.N() <= 0 {
		t.Fatalf("accepted index with n=%d", ix.N())
	}
	if _, _, qerr := ix.TopK(0, 3); qerr != nil {
		t.Fatalf("accepted index cannot answer: %v", qerr)
	}
}

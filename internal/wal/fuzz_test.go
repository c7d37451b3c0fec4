package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALReplay throws arbitrary bytes at recovery as the content of a
// single segment file and asserts the crash-safety invariants hold for
// any input: Open never panics and never fails (a lone corrupt segment
// is truncated, not fatal), replay yields records in contiguous
// sequence order, recovery is idempotent (a second Open sees exactly
// what the first one kept), and the recovered log accepts appends that
// continue the sequence.
func FuzzWALReplay(f *testing.F) {
	// Seed with a clean two-record segment, its torn and bit-flipped
	// variants, and degenerate files.
	l, err := Open(f.TempDir(), Options{Sync: SyncNone})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := l.Append([]byte("seed-one")); err != nil {
		f.Fatal(err)
	}
	if _, err := l.Append([]byte("seed-two")); err != nil {
		f.Fatal(err)
	}
	names := l.SegmentNames()
	l.Close()
	clean, err := os.ReadFile(filepath.Join(l.dir, names[0]))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(clean)
	f.Add(clean[:len(clean)-3])
	flipped := append([]byte(nil), clean...)
	flipped[len(segMagic)+frameHeaderLen] ^= 0xFF
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte(segMagic))
	f.Add([]byte("not a wal segment at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), data, 0o644); err != nil {
			t.Skip()
		}
		lg, err := Open(dir, Options{Sync: SyncNone})
		if err != nil {
			t.Fatalf("Open on fuzzed segment: %v", err)
		}
		var first []struct {
			seq  uint64
			body []byte
		}
		prev := uint64(0)
		if err := lg.Replay(0, func(seq uint64, b []byte) error {
			if seq != prev+1 {
				t.Fatalf("non-contiguous replay: seq %d after %d", seq, prev)
			}
			prev = seq
			first = append(first, struct {
				seq  uint64
				body []byte
			}{seq, append([]byte(nil), b...)})
			return nil
		}); err != nil {
			t.Fatalf("Replay: %v", err)
		}
		last := lg.LastSeq()
		if uint64(len(first)) != last {
			t.Fatalf("recovered %d records but LastSeq = %d", len(first), last)
		}
		if seq, err := lg.Append([]byte("resume")); err != nil || seq != last+1 {
			t.Fatalf("resume Append = (%d, %v), want (%d, nil)", seq, err, last+1)
		}
		lg.Close()

		// Idempotence: recovery already truncated the torn tail, so a
		// second Open must keep every original record plus the resume
		// append, with nothing newly dropped.
		lg2, err := Open(dir, Options{Sync: SyncNone})
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		defer lg2.Close()
		i := 0
		if err := lg2.Replay(0, func(seq uint64, b []byte) error {
			if seq <= last {
				if i >= len(first) || first[i].seq != seq || !bytes.Equal(first[i].body, b) {
					t.Fatalf("second recovery disagrees at seq %d", seq)
				}
				i++
			}
			return nil
		}); err != nil {
			t.Fatalf("second Replay: %v", err)
		}
		if i != len(first) || lg2.LastSeq() != last+1 {
			t.Fatalf("second recovery kept %d/%d records, LastSeq %d want %d",
				i, len(first), lg2.LastSeq(), last+1)
		}
	})
}

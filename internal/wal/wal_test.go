package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func openT(t *testing.T, dir string, opt Options) *Log {
	t.Helper()
	l, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// SegmentNames lists the live segment files in replay order.
func (l *Log) SegmentNames() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	names := make([]string, len(l.segments))
	for i, s := range l.segments {
		names[i] = s.name
	}
	return names
}

func body(i int) []byte { return []byte(fmt.Sprintf("record-%04d-payload", i)) }

func collect(t *testing.T, l *Log, after uint64) map[uint64][]byte {
	t.Helper()
	got := map[uint64][]byte{}
	prev := after
	err := l.Replay(after, func(seq uint64, b []byte) error {
		if seq != prev+1 {
			t.Fatalf("replay out of order: seq %d after %d", seq, prev)
		}
		prev = seq
		got[seq] = append([]byte(nil), b...)
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return got
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{Sync: SyncNone})
	const n = 50
	for i := 1; i <= n; i++ {
		seq, err := l.Append(body(i))
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if seq != uint64(i) {
			t.Fatalf("Append %d returned seq %d", i, seq)
		}
	}
	got := collect(t, l, 0)
	if len(got) != n {
		t.Fatalf("replayed %d records, want %d", len(got), n)
	}
	for i := 1; i <= n; i++ {
		if !bytes.Equal(got[uint64(i)], body(i)) {
			t.Fatalf("record %d = %q", i, got[uint64(i)])
		}
	}
	// Partial replay honours the cursor.
	if got := collect(t, l, 30); len(got) != n-30 {
		t.Fatalf("replay after 30 returned %d records, want %d", len(got), n-30)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: everything survives, appends continue the sequence.
	l2 := openT(t, dir, Options{Sync: SyncNone})
	if l2.LastSeq() != n {
		t.Fatalf("reopened LastSeq = %d, want %d", l2.LastSeq(), n)
	}
	if st := l2.Stats(); st.RecoveredRecords != n || st.TornBytesDropped != 0 {
		t.Fatalf("recovery stats = %+v", st)
	}
	seq, err := l2.Append(body(n + 1))
	if err != nil || seq != n+1 {
		t.Fatalf("post-reopen Append = (%d, %v), want (%d, nil)", seq, err, n+1)
	}
}

func TestSegmentRotationAndTruncation(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation every few records.
	l := openT(t, dir, Options{Sync: SyncNone, SegmentBytes: 128})
	const n = 40
	for i := 1; i <= n; i++ {
		if _, err := l.Append(body(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Rotations == 0 || st.Segments < 2 {
		t.Fatalf("expected rotations with 128-byte segments, stats = %+v", st)
	}
	if got := collect(t, l, 0); len(got) != n {
		t.Fatalf("replayed %d records across segments, want %d", len(got), n)
	}

	// Truncate through the middle: early segments go, later records stay.
	if err := l.TruncateThrough(20); err != nil {
		t.Fatalf("TruncateThrough: %v", err)
	}
	got := collect(t, l, 20)
	for i := 21; i <= n; i++ {
		if !bytes.Equal(got[uint64(i)], body(i)) {
			t.Fatalf("record %d lost by truncation", i)
		}
	}
	if l.Stats().SegmentsFree == 0 {
		t.Fatal("truncation deleted no segments")
	}

	// Truncate through everything: the directory shrinks to one
	// near-empty active segment, and the sequence still continues.
	if err := l.TruncateThrough(l.LastSeq()); err != nil {
		t.Fatalf("TruncateThrough(all): %v", err)
	}
	if st := l.Stats(); st.Segments != 1 || st.Bytes > 64 {
		t.Fatalf("post-full-truncation stats = %+v", st)
	}
	if got := collect(t, l, 0); len(got) != 0 {
		t.Fatalf("replay after full truncation returned %d records", len(got))
	}
	seq, err := l.Append(body(n + 1))
	if err != nil || seq != n+1 {
		t.Fatalf("Append after full truncation = (%d, %v), want (%d, nil)", seq, err, n+1)
	}
	l.Close()

	// Sequence numbering survives a restart of the truncated log.
	l2 := openT(t, dir, Options{Sync: SyncNone})
	if l2.LastSeq() != n+1 {
		t.Fatalf("reopened LastSeq = %d, want %d", l2.LastSeq(), n+1)
	}
}

// TestKillPoints is the crash harness: it builds a log, then for every
// byte boundary that could survive a crash — each record boundary plus
// every torn prefix inside the final record — truncates a copy of the
// log there, reopens it, and asserts recovery yields exactly the
// records whose frames fit, in order, with appends continuing cleanly.
func TestKillPoints(t *testing.T) {
	master := t.TempDir()
	l := openT(t, master, Options{Sync: SyncNone})
	const n = 8
	for i := 1; i <= n; i++ {
		if _, err := l.Append(body(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(master, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("expected one segment, got %v (%v)", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	name := filepath.Base(segs[0])

	// Record boundaries: offset after the magic, then after each frame.
	bounds := []int{len(segMagic)}
	off := len(segMagic)
	for i := 1; i <= n; i++ {
		off += frameHeaderLen + payloadOverhead + len(body(i))
		bounds = append(bounds, off)
	}
	if off != len(data) {
		t.Fatalf("frame walk ends at %d, file is %d bytes", off, len(data))
	}

	reopen := func(t *testing.T, cut []byte) *Log {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, name), cut, 0o644); err != nil {
			t.Fatal(err)
		}
		return openT(t, dir, Options{Sync: SyncNone})
	}

	for bi, b := range bounds {
		t.Run(fmt.Sprintf("boundary-%d", bi), func(t *testing.T) {
			lg := reopen(t, data[:b])
			got := collect(t, lg, 0)
			if len(got) != bi {
				t.Fatalf("cut at boundary %d recovered %d records", bi, len(got))
			}
			for i := 1; i <= bi; i++ {
				if !bytes.Equal(got[uint64(i)], body(i)) {
					t.Fatalf("record %d corrupted by recovery", i)
				}
			}
			if seq, err := lg.Append([]byte("resume")); err != nil || seq != uint64(bi)+1 {
				t.Fatalf("resume Append = (%d, %v), want (%d, nil)", seq, err, bi+1)
			}
		})
	}

	// Torn final record: every strict prefix of the last frame must drop
	// exactly that record and keep the n-1 before it.
	last := bounds[len(bounds)-2]
	for _, cut := range []int{last + 1, last + frameHeaderLen - 1, last + frameHeaderLen, len(data) - 1} {
		t.Run(fmt.Sprintf("torn-at-%d", cut), func(t *testing.T) {
			lg := reopen(t, data[:cut])
			got := collect(t, lg, 0)
			if len(got) != n-1 {
				t.Fatalf("torn tail at %d recovered %d records, want %d", cut, len(got), n-1)
			}
			if st := lg.Stats(); st.TornBytesDropped != int64(cut-last) {
				t.Fatalf("TornBytesDropped = %d, want %d", st.TornBytesDropped, cut-last)
			}
		})
	}

	// Bit-flip corruption inside each record's payload: recovery must
	// keep every record before it and drop it and everything after.
	for i := 1; i <= n; i++ {
		t.Run(fmt.Sprintf("flip-record-%d", i), func(t *testing.T) {
			bad := append([]byte(nil), data...)
			bad[bounds[i-1]+frameHeaderLen+payloadOverhead] ^= 0x80
			lg := reopen(t, bad)
			got := collect(t, lg, 0)
			if len(got) != i-1 {
				t.Fatalf("flip in record %d recovered %d records, want %d", i, len(got), i-1)
			}
		})
	}
}

// TestCorruptionQuarantinesLaterSegments: a bad record in an early
// segment must stop replay there and rename later segments aside rather
// than replay across the gap.
func TestCorruptionQuarantinesLaterSegments(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{Sync: SyncNone, SegmentBytes: 96})
	const n = 20
	for i := 1; i <= n; i++ {
		if _, err := l.Append(body(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) < 3 {
		t.Fatalf("want >=3 segments, got %d", len(segs))
	}
	// Corrupt a record in the first segment, past the magic.
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(segMagic)+frameHeaderLen+2] ^= 0xFF
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2 := openT(t, dir, Options{Sync: SyncNone})
	st := l2.Stats()
	if st.SegmentsCorrupt != len(segs)-1 {
		t.Fatalf("quarantined %d segments, want %d (stats %+v)", st.SegmentsCorrupt, len(segs)-1, st)
	}
	if got := collect(t, l2, 0); len(got) != 0 {
		t.Fatalf("recovered %d records past a corrupt first record", len(got))
	}
	quarantined, _ := filepath.Glob(filepath.Join(dir, "*.corrupt"))
	if len(quarantined) != len(segs)-1 {
		t.Fatalf("found %d .corrupt files, want %d", len(quarantined), len(segs)-1)
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncAlways, SyncInterval, SyncNone} {
		t.Run(pol.String(), func(t *testing.T) {
			l := openT(t, t.TempDir(), Options{Sync: pol, SyncEvery: time.Millisecond})
			for i := 1; i <= 10; i++ {
				if _, err := l.Append(body(i)); err != nil {
					t.Fatal(err)
				}
			}
			st := l.Stats()
			switch pol {
			case SyncAlways:
				if st.Fsyncs < 10 {
					t.Fatalf("SyncAlways issued %d fsyncs for 10 appends", st.Fsyncs)
				}
			case SyncInterval:
				deadline := time.Now().Add(time.Second)
				for l.Stats().Fsyncs == 0 {
					if time.Now().After(deadline) {
						t.Fatal("interval syncer never fsynced")
					}
					time.Sleep(time.Millisecond)
				}
			}
			if got := collect(t, l, 0); len(got) != 10 {
				t.Fatalf("replayed %d records", len(got))
			}
		})
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for in, want := range map[string]SyncPolicy{
		"always": SyncAlways, "interval": SyncInterval, "none": SyncNone, "": SyncInterval,
	} {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseSyncPolicy(%q) = (%v, %v), want %v", in, got, err, want)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("ParseSyncPolicy accepted garbage")
	}
}

func TestForeignFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"notes.txt", "wal-xyz.log", "wal-0000000000000001.log.corrupt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l := openT(t, dir, Options{Sync: SyncNone})
	if seq, err := l.Append([]byte("x")); err != nil || seq != 1 {
		t.Fatalf("Append = (%d, %v)", seq, err)
	}
	names := l.SegmentNames()
	if len(names) != 1 || !strings.HasPrefix(names[0], "wal-") {
		t.Fatalf("SegmentNames = %v", names)
	}
}

func TestMissingMiddleSegmentFailsOpen(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{Sync: SyncNone, SegmentBytes: 96})
	for i := 1; i <= 20; i++ {
		if _, err := l.Append(body(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) < 3 {
		t.Fatalf("want >=3 segments, got %d", len(segs))
	}
	if err := os.Remove(segs[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Sync: SyncNone}); err == nil {
		t.Fatal("Open succeeded across a missing middle segment")
	}
}

// TestReopenDegenerateActiveSegments pins recovery at the two
// degenerate active-segment lengths a crash can leave behind, plus the
// partially written magic between them: a 0-byte file (killed between
// segment create and magic write), a header-only file (magic written,
// no records yet), and a torn prefix of the magic itself. In every case
// reopen must keep the earlier segments' records, restore a writable
// header, and continue the sequence with no gap.
func TestReopenDegenerateActiveSegments(t *testing.T) {
	const n = 5 // records in the healthy first segment
	cases := []struct {
		name     string
		tail     []byte // content of the hand-made next segment
		wantTorn int64  // TornBytesDropped the scan should report
	}{
		{"empty-zero-bytes", nil, 0},
		{"exactly-magic-length", []byte(segMagic), 0},
		{"partial-magic", []byte(segMagic[:3]), 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l := openT(t, dir, Options{Sync: SyncNone})
			for i := 1; i <= n; i++ {
				if _, err := l.Append(body(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			// Plant the degenerate active segment where a rotation crash
			// would have left it: first seq continuous with the log.
			next := filepath.Join(dir, segmentName(n+1))
			if err := os.WriteFile(next, tc.tail, 0o644); err != nil {
				t.Fatal(err)
			}

			l2 := openT(t, dir, Options{Sync: SyncNone})
			if st := l2.Stats(); st.RecoveredRecords != n || st.TornBytesDropped != tc.wantTorn {
				t.Fatalf("recovery stats = %+v, want %d records / %d torn bytes", st, n, tc.wantTorn)
			}
			if got := collect(t, l2, 0); len(got) != n {
				t.Fatalf("replayed %d records, want %d", len(got), n)
			}
			seq, err := l2.Append(body(n + 1))
			if err != nil || seq != n+1 {
				t.Fatalf("post-reopen Append = (%d, %v), want (%d, nil)", seq, err, n+1)
			}
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}

			// A second reopen proves the rewritten header round-trips: all
			// n+1 records replay, none counted torn.
			l3 := openT(t, dir, Options{Sync: SyncNone})
			if got := collect(t, l3, 0); len(got) != n+1 {
				t.Fatalf("second reopen replayed %d records, want %d", len(got), n+1)
			}
			if st := l3.Stats(); st.TornBytesDropped != 0 {
				t.Fatalf("second reopen still drops torn bytes: %+v", st)
			}
		})
	}
}

// TestDirSyncFailureIsSticky: a log directory fsync that fails after a
// segment is created or compacted segments are removed is returned, and
// a failed rotation refuses every later append, as a failed record
// fsync does — under SyncAlways a record acked into a segment whose
// directory entry is not durable could vanish with it on power loss.
func TestDirSyncFailureIsSticky(t *testing.T) {
	boom := errors.New("injected directory fsync failure")
	saved := syncDir
	t.Cleanup(func() { syncDir = saved })
	for _, tc := range []struct {
		name   string
		op     func(l *Log) error
		sticky bool
	}{
		{"rotation in an append", func(l *Log) error { _, err := l.Append(body(9)); return err }, true},
		{"rotation before a truncation", func(l *Log) error { return l.TruncateThrough(l.LastSeq()) }, true},
		{"removal in a truncation", func(l *Log) error { return l.TruncateThrough(1) }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			syncDir = saved
			l := openT(t, t.TempDir(), Options{Sync: SyncAlways, SegmentBytes: 64})
			for i := 1; i <= 2; i++ { // one record per segment
				if _, err := l.Append(body(i)); err != nil {
					t.Fatal(err)
				}
			}
			syncDir = func(string) error { return boom }
			if err := tc.op(l); !errors.Is(err, boom) {
				t.Fatalf("err = %v, want the directory fsync's", err)
			}
			syncDir = saved
			_, err := l.Append(body(10))
			if tc.sticky && !errors.Is(err, boom) {
				t.Fatalf("append after a failed rotation: err = %v, want it refused with the fsync error", err)
			}
			if !tc.sticky && err != nil {
				t.Fatalf("append after a failed removal sync: %v", err)
			}
		})
	}
}

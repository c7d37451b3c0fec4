package shard

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"kdash/internal/reorder"
	"kdash/internal/testutil"
)

// TestSnapshotCommitOrder records every fsync, rename and removal of a
// WAL snapshot that replaces an older one and pins their order: each
// file of the new snapshot is fsynced, the manifest last, then the
// snapshot directory; CURRENT.tmp is fsynced before the rename that
// makes it CURRENT; the snapshot directory is fsynced after the rename;
// and only then is the old snapshot removed. Dropping any one of those
// fsyncs fails it. The server truncates its log only after
// CommitSnapshot returns (TestWALSnapshotRecovery).
func TestSnapshotCommitOrder(t *testing.T) {
	sx, err := Build(testutil.Clustered(60, 3, 5), Options{Shards: 3, Reorder: reorder.Hybrid, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	parent := t.TempDir()
	if err := CommitSnapshot(parent, 1, sx.Save); err != nil {
		t.Fatal(err)
	}

	var ops []string
	saved := fsys
	t.Cleanup(func() { fsys = saved })
	fsys.sync = func(f *os.File) error {
		ops = append(ops, "sync "+f.Name())
		return saved.sync(f)
	}
	fsys.rename = func(oldpath, newpath string) error {
		ops = append(ops, "rename "+oldpath)
		return saved.rename(oldpath, newpath)
	}
	fsys.removeAll = func(path string) error {
		ops = append(ops, "remove "+path)
		return saved.removeAll(path)
	}
	if err := CommitSnapshot(parent, 2, sx.Save); err != nil {
		t.Fatal(err)
	}
	fsys = saved

	at := func(op string) int {
		t.Helper()
		i := slices.Index(ops, op)
		if i < 0 {
			t.Fatalf("no %q among %q", op, ops)
		}
		return i
	}
	before := func(a, b string) {
		t.Helper()
		if at(a) >= at(b) {
			t.Fatalf("%q does not come before %q: %q", a, b, ops)
		}
	}
	snap := filepath.Join(parent, "epoch-00000002")
	tmp := filepath.Join(parent, SnapshotCurrent+".tmp")
	manifest := "sync " + filepath.Join(snap, ManifestName)
	entries, err := os.ReadDir(snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != ManifestName {
			before("sync "+filepath.Join(snap, e.Name()), manifest)
		}
	}
	before(manifest, "sync "+snap)
	before("sync "+snap, "rename "+tmp)
	before("sync "+tmp, "rename "+tmp)
	before("rename "+tmp, "sync "+parent)
	before("sync "+parent, "remove "+filepath.Join(parent, "epoch-00000001"))

	if got, ok := latestSnapshot(parent); !ok || got != snap {
		t.Fatalf("CURRENT names %q (%v), want %q", got, ok, snap)
	}
	if _, err := os.Stat(filepath.Join(parent, "epoch-00000001")); !os.IsNotExist(err) {
		t.Fatalf("the replaced snapshot survives: %v", err)
	}
}

// latestSnapshot reads parent/CURRENT the way a server's recovery does.
func latestSnapshot(parent string) (string, bool) {
	blob, err := os.ReadFile(filepath.Join(parent, SnapshotCurrent))
	if err != nil || len(blob) < 2 {
		return "", false
	}
	return filepath.Join(parent, string(blob[:len(blob)-1])), true
}

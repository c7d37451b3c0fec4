package shard

// Durable writes: writeFile fsyncs every file, Save writes the manifest
// last and fsyncs the directory, and CommitSnapshot makes a WAL
// snapshot current only after that, pruning the snapshots it replaces
// only once the pointer to the new one is itself durable.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// SnapshotCurrent is the file in a snapshot directory that names the
// current snapshot, one of its epoch-N subdirectories.
const SnapshotCurrent = "CURRENT"

// fsys is the seam every fsync, rename and removal of a durable write
// goes through; a test swaps it to record their order.
var fsys = struct {
	sync      func(*os.File) error
	rename    func(oldpath, newpath string) error
	removeAll func(path string) error
}{(*os.File).Sync, os.Rename, os.RemoveAll}

// syncDir fsyncs directory dir, making the entries created or renamed
// in it durable. Windows cannot fsync a directory handle; NTFS journals
// its entries itself.
func syncDir(dir string) error {
	if runtime.GOOS == "windows" {
		return nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = fsys.sync(d)
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// CommitSnapshot saves a snapshot of epoch through save into
// parent/epoch-N, then makes it the one parent/CURRENT names: CURRENT is
// written and fsynced as CURRENT.tmp, renamed and parent fsynced. Only
// then are parent's other epoch-* snapshots removed, best-effort. save
// must leave its directory durable, as Save does. Any failure returns
// before CURRENT changes, so the previous snapshot stays current.
func CommitSnapshot(parent string, epoch int, save func(dir string) error) error {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("epoch-%08d", epoch)
	if err := save(filepath.Join(parent, name)); err != nil {
		return err
	}
	tmp := filepath.Join(parent, SnapshotCurrent+".tmp")
	if err := writeFile(tmp, func(w io.Writer) error {
		_, err := io.WriteString(w, name+"\n")
		return err
	}); err != nil {
		return err
	}
	if err := fsys.rename(tmp, filepath.Join(parent, SnapshotCurrent)); err != nil {
		return err
	}
	if err := syncDir(parent); err != nil {
		return err
	}
	// Older snapshots are now unreachable. A loaded index serves from
	// sealed copies of its shard files, not from the files, so removing
	// them pulls nothing out from under a reader.
	if entries, err := os.ReadDir(parent); err == nil {
		for _, e := range entries {
			if e.IsDir() && e.Name() != name && strings.HasPrefix(e.Name(), "epoch-") {
				_ = fsys.removeAll(filepath.Join(parent, e.Name()))
			}
		}
	}
	return nil
}

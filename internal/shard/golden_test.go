package shard

// The standing guard that build-path work stays bit-identical: the
// sha256 of every file Save writes for one seeded build, and again
// after one two-edge Apply, pinned to the values the block ordering by
// owned subgraph and cut-owning nodes first produced, as written by the
// directory generation of sealed graph and partition containers and
// shard files that keep their communities. A change that
// moves any of these hashes has changed a partition, an ordering, a
// factor bit or the snapshot — which is a different kind of change
// from making the build faster.

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"kdash/internal/gen"
	"kdash/internal/reorder"
)

var goldenBuild = map[string]string{
	"graph.idx":      "579e1a30a6b69b6af1e6da10bf8ef46306f9070f463d434c29630f1e4be43015",
	"manifest.json":  "eeffd2e1712f7a087c5aaf2597ba41cb4412cbc6614001bb0cd81f0aac5160b7",
	"partition.idx":  "93555a42d607fe6ba816535b036a031c289ab15d28018c1cc154c777f625c59a",
	"shard-0000.idx": "4849c570e74ba000038993de96eff9c5e71d3e599dbd994684252b83f85ef3be",
	"shard-0001.idx": "3ad605384ff5c7ed51c747a8363245d8f493bac07265ca4116f2436590b1f8f7",
	"shard-0002.idx": "55f03ad04466b44cd0f50711ee0079055dd6136a90c9cd5299aec92392e39a55",
	"shard-0003.idx": "8dbe48e809a902973c3c71907defd9d5caabb12f208f2975f75b6f6589647f41",
}

var goldenApply = map[string]string{
	"graph.idx":      "75ee8ff697ffa65de073b5dbf257c8bf83c224fc1c94a3c8793acc91acacdf02",
	"manifest.json":  "4eb28149363e0f1ee17f558b15fe7f254a4cb3ebee716abf988f43c0b218a2e3",
	"partition.idx":  "d81ee11133664f1c2bf67a92968074195c3375a41c0f518381a6f46ac15acbf1",
	"shard-0000.idx": "c8eff9f777001ba8174f522a87ac2c7cb5421f9cb75dd1a35c90806eacfe4b1b",
	"shard-0001.idx": "d7fd957068f1e11b400f5251dec18c4ec0ca046d21e6a2981e3ed73679aa6a5c",
	"shard-0002.idx": "55f03ad04466b44cd0f50711ee0079055dd6136a90c9cd5299aec92392e39a55",
	"shard-0003.idx": "8dbe48e809a902973c3c71907defd9d5caabb12f208f2975f75b6f6589647f41",
}

// dirHashes returns file name -> sha256 hex for every file in dir.
func dirHashes(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range entries {
		blob, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = fmt.Sprintf("%x", sha256.Sum256(blob))
	}
	return out
}

// checkGolden compares got to want; on any difference it prints got as
// a Go literal, so a deliberate format change is one paste away.
func checkGolden(t *testing.T, label string, got, want map[string]string) {
	t.Helper()
	same := len(got) == len(want)
	for name, h := range got {
		same = same && want[name] == h
	}
	if same {
		return
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, name := range names {
		mark := ""
		if want[name] != got[name] {
			mark = " // differs"
		}
		fmt.Fprintf(&sb, "\t%q: %q,%s\n", name, got[name], mark)
	}
	t.Errorf("%s: saved index is not byte-identical to the pinned one; got:\n%s", label, sb.String())
}

func TestGoldenIndexBytes(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hashes are pinned on amd64; other architectures fuse multiply-adds and legitimately differ in the last bit")
	}
	g := gen.CommunityOverlay(2000, 3, 20, 0.995, 7)
	sx, err := Build(g, Options{Shards: 4, Reorder: reorder.Hybrid, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := sx.Save(filepath.Join(dir, "build")); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "build", dirHashes(t, filepath.Join(dir, "build")), goldenBuild)

	// Two new edges whose sources live in different shards.
	u1, u2 := 0, 0
	for sx.home[u2] == sx.home[u1] {
		u2++
	}
	d := g.NewDelta()
	for _, e := range [][2]int{{u1, 1777}, {u2, 1333}} {
		if g.HasEdge(e[0], e[1]) {
			t.Fatalf("edge %v already present: pick another", e)
		}
		if err := d.AddEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	sx2, us, err := sx.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	if us.ShardsRebuilt != 2 {
		t.Fatalf("rebuilt %d shards, want 2", us.ShardsRebuilt)
	}
	if err := sx2.Save(filepath.Join(dir, "apply")); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "apply", dirHashes(t, filepath.Join(dir, "apply")), goldenApply)
}

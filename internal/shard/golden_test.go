package shard

// The standing guard that build-path work stays bit-identical: the
// sha256 of every file Save writes for one seeded build, and again
// after one two-edge Apply, pinned to the values the block ordering by
// owned subgraph and cut-owning nodes first produced. A change that
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
	"assignment.bin": "b1bc81bd7713a5bd510f0deb23320ad015e037efdecd9391fea4310830b26355",
	"cuts.bin":       "dc7ba4a8c1fce244a68dc19159dff52a377a5c0f35c29f91bc18ba39f92e6254",
	"graph.tsv":      "08c76046b9f601c08a6304bdfe14ad64baf7145820ff23ad2a9f0753c6b3471d",
	"manifest.json":  "5e18335d6923f1b7cf6e100a9b3268e682dd2e4c7c704e80fd7334d994ef3bde",
	"shard-0000.idx": "29fa21707e1fd2224a3bfe2e0b8b83c3e53cbb21fc17daa6c40a292002cddc4a",
	"shard-0001.idx": "f54aa201118fa198cddcc7fa454d022bc15b8572d5260703e491ab745e81c873",
	"shard-0002.idx": "5ad6fe4e23a9cb6a6363de159ca6a3c6eb8d0b46f1fd48594546357bcb29adbf",
	"shard-0003.idx": "5755e92a121176e21da08956662b73aac46468cf8956266775127f38b3629312",
}

var goldenApply = map[string]string{
	"assignment.bin": "b1bc81bd7713a5bd510f0deb23320ad015e037efdecd9391fea4310830b26355",
	"cuts.bin":       "b46bc3bdaa7fae2dc71b63a3cede4fbbe89d6a9835a025047269ff963ccdb4ca",
	"graph.tsv":      "c64aa3201f6b6b177584428b1b54498d43c709cc0a526c1501d69457c2538316",
	"manifest.json":  "226c6688f4b0429822072f69c7f4e8a7e6df2e888588c86e63b8e09f7ea9d0e1",
	"shard-0000.idx": "ed9d219ff629007816d894ebdd5c02fa185cba7ff3555b584bb938130425d312",
	"shard-0001.idx": "cfe1e8452dbfa5ea9b6c329a754e96278868a9c2fc45e3cd8ff03525ecffbfa5",
	"shard-0002.idx": "5ad6fe4e23a9cb6a6363de159ca6a3c6eb8d0b46f1fd48594546357bcb29adbf",
	"shard-0003.idx": "5755e92a121176e21da08956662b73aac46468cf8956266775127f38b3629312",
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

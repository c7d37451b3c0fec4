package shard

// The standing guard that build-path work stays bit-identical: the
// sha256 of every file Save writes for one seeded build, and again
// after one two-edge Apply, pinned to the values the block ordering by
// owned subgraph and cut-owning nodes first produced, as written by the
// directory generation whose snapshot keeps only the out-adjacency and
// whose shard files keep their communities but no block adjacency. A
// change that
// moves any of these hashes has changed a partition, an ordering, a
// factor bit or the snapshot — which is a different kind of change
// from making the build faster.

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"kdash/internal/gen"
	"kdash/internal/reorder"
)

var goldenBuild = map[string]string{
	"graph.idx":      "9837d59550157996c6dba9e70b28d9747cfec88bcb2d2c5e26fd4855b9efd8ba",
	"manifest.json":  "4600332337659d11f17f449e7be44a2bbdfb7eb854b8a3ad915ed7cb5717f6db",
	"partition.idx":  "93555a42d607fe6ba816535b036a031c289ab15d28018c1cc154c777f625c59a",
	"shard-0000.idx": "fa4bef5a1b7ef220eed4ccb844d90dfdb8c1e8db623d2ed1d5e2d456b3bd4323",
	"shard-0001.idx": "8bd82ce756c3c3713aaf708615c8336ccfd9eb8b9ebbbc5d70a3ebc96e9c6719",
	"shard-0002.idx": "a4db2d736d1d9a729b4c66b37eed8deeef1a4e37302824ff53e93336f30f6427",
	"shard-0003.idx": "149b6e6b9cb7991fcc43461f9122efc264d317c33d9d2ece487cff307565c27b",
}

var goldenApply = map[string]string{
	"graph.idx":      "4e779c09655564991f8f2d20f13c154c8a9e1f7f1c37abf24a99a0ce7620b1a7",
	"manifest.json":  "c3a4b76980cd55873e3c6359003da1cb408a598a2693330f64353c10b6da7685",
	"partition.idx":  "d81ee11133664f1c2bf67a92968074195c3375a41c0f518381a6f46ac15acbf1",
	"shard-0000.idx": "758e4153f5fb25e31b14f47e592b84910e05363aabc2e5f03209ac3857ff8006",
	"shard-0001.idx": "de9a8cbe728472e7db11a9287ce3b54ffa5b3512e51d371626a2dfc4a5f73bbc",
	"shard-0002.idx": "a4db2d736d1d9a729b4c66b37eed8deeef1a4e37302824ff53e93336f30f6427",
	"shard-0003.idx": "149b6e6b9cb7991fcc43461f9122efc264d317c33d9d2ece487cff307565c27b",
}

// Sections whose bytes the container generation does not decide: a
// shard file's permutation (2), L^{-1} (7-9), U^{-1} (10-12) and
// communities (23), and the snapshot's out-adjacency (2-4). Their
// hashes pin the factors and the graph across a change of container
// layout, which moves every file hash above.
var (
	factorSections = []uint32{2, 7, 8, 9, 10, 11, 12, 23}
	graphSections  = []uint32{2, 3, 4}
)

var goldenBuildSections = map[string]string{
	"graph.idx/2":       "817f69f60301f94d4709b48a316a983d3839103e1fd878f5e29b98ede7836b83",
	"graph.idx/3":       "047476eb901d865192c5d351d1e812776c13f1ef4ad0b440eaa0d8e086692c7d",
	"graph.idx/4":       "9b70879562dbfaa7680b85b08a3a3a2826e9aaa57b2fd4d312a44c1d81a5fc19",
	"shard-0000.idx/10": "ebbe1e433722da347e8d0b3e6096ea8fdcfeec762b0be2f738485233ee244e6d",
	"shard-0000.idx/11": "5d0b0a24fe3694b4a5ab287717494208ff5ffdbcbc4d14e5cfc894a281d6865c",
	"shard-0000.idx/12": "7e05f15b2eaa806bb10573842876466a34d12d6414e3765e3958798ba590d1e7",
	"shard-0000.idx/2":  "23a32783038e42b0e2969d54f21d182ab0cc7141a53ef3239a0692ebf413be36",
	"shard-0000.idx/23": "3774a859ec63b7487e3ea219c71913523cf053e2fafbeff7d8537b8b15af102b",
	"shard-0000.idx/7":  "01144448c3bd771f4f1178b66628934002670e13ac5f91f01b53952edb81cae4",
	"shard-0000.idx/8":  "e4f824838b8999092746d97ab09e2dd2f4eca34ba2e9d85a1976f36f579055b8",
	"shard-0000.idx/9":  "9ec44598283744959e20ea5c3d6085d54d62f6c04bbb244fd99c2349e6d5213b",
	"shard-0001.idx/10": "02223f0b4391522279d04d20a3a7a7e3d10ae1771a92de3c27e5209315046553",
	"shard-0001.idx/11": "b3201e2118c4148a1f8fd4202facd009f690a6cbf7b8689cc7df54331e9bdf33",
	"shard-0001.idx/12": "ec3dc9ed3f3515e83c3d756b7db6c96eb7b139f58e63834cf37fc21cf95c7c88",
	"shard-0001.idx/2":  "e98a944e4ef4ed10eae3aa51975b738db7e76557697dd70e97ffb3bc8d7ba507",
	"shard-0001.idx/23": "02fde1cfeb4723fa924a66fb5b018e0b63f76898a8a6857f403d5f78fc0d01ef",
	"shard-0001.idx/7":  "713e69f64a7b960e1f0bd6282dd5191f7f57ce5ec8402278adae8da7ffa0e51a",
	"shard-0001.idx/8":  "fadd6cbbb21310096c2c8409aae07d7bdad5fe6261aa5b9f07530a7220ca030a",
	"shard-0001.idx/9":  "52689cdf606b258bcac3574f530e4a47824ba71cd41554bd25c9761baa8fd9d1",
	"shard-0002.idx/10": "a3b4ed5b3098459c99b429ff8fbd32585c1f01695ff53b54fdddf31a0261a753",
	"shard-0002.idx/11": "f9f0a5f1d1f51f4015acc78054d0c212d3b0a78785a9f67c1ac1febce8ec9a59",
	"shard-0002.idx/12": "6ae87230c9bd723ea07caa9cc8956615221348230391791eec1e87034f68afa6",
	"shard-0002.idx/2":  "9708589b79ed3e1dea04dc36f04c322d396579a1e6ec3d6f4e3cdf019c200ef4",
	"shard-0002.idx/23": "1362b314052dfc5bab4ba23210288b29275c7077d8e43cdf6bc33f5088500ad7",
	"shard-0002.idx/7":  "91f514531f1158558f09edba893ccb072fb3ce8f75beb0984bf4dfb6c7b76477",
	"shard-0002.idx/8":  "a1401ab9569b0dc7e4f0b36cde330ad6a1f029ef810dd13ff05ae6a5d516d0a1",
	"shard-0002.idx/9":  "8bea859f5bdf8cea4655cde5ab2099fa09965399efd6fa7a6fc99c5b06f0c39d",
	"shard-0003.idx/10": "940dde29599c7c9b80593718d801632af497341ae393410a4bf28c07f8bea8ee",
	"shard-0003.idx/11": "69fd3847830b6313c1848c048aeeaffb5702a32afbe14f04f7bf74a8b006b4c4",
	"shard-0003.idx/12": "8ae2faa2988f58ae61b7bf8a18403e0d4f0861f96fc34d785095a38bea6b848a",
	"shard-0003.idx/2":  "8bdba01de3d1156cd2cafbfb50d71c1f40ecf9f72156d479fa3cb9858cb52a9c",
	"shard-0003.idx/23": "123c1a8c87d9a28d03d995957bd7eec6276ca35c15b8b0417436f28fc6622766",
	"shard-0003.idx/7":  "c63647ad5a495e8a239273f0d41e2ec3c1428bed2f9fd7ce88cb3268dce5d06a",
	"shard-0003.idx/8":  "8944c93ad94a102cc93b1c2e85201251550dc0c2f35cf8ca03150f6cfe616436",
	"shard-0003.idx/9":  "43c800ebd7cfdf2224cc2d0d79105333fa5558ab26df7191de5077787403dc6a",
}

var goldenApplySections = map[string]string{
	"graph.idx/2":       "8efdf46f0be41e9dae389f3f4944d2d38baff772df23b950826fc152cd170f50",
	"graph.idx/3":       "1c246eed4f5470c54a0c653de7fd7e9fcfe62c8fe0d76813db5de8cb95f427a4",
	"graph.idx/4":       "42c1c07370409c9dfb9003d0f5fc5ef42b989e8845a4860ee55e84228f37aff3",
	"shard-0000.idx/10": "1f953c7e496ea8c4d891379b00d0969a4dc72489247e758a46bf083a220ecd44",
	"shard-0000.idx/11": "a151964b19830ff01e3ed54c05e3390bfcf9fe6a66eaa9f007b5efce8af93ca5",
	"shard-0000.idx/12": "4754c795bb0e68d5beb651cbb107aa921c1583f61cfe16c80a0a84aafd1ed08c",
	"shard-0000.idx/2":  "1259c67310ab94085d1f90bc273b5af728dbd4cf064c675c6639fa026df370a6",
	"shard-0000.idx/23": "3774a859ec63b7487e3ea219c71913523cf053e2fafbeff7d8537b8b15af102b",
	"shard-0000.idx/7":  "0ff8451977e9c416fb550357cbd6ef9a0a5f943ee8b73c79514ed23d5af57c55",
	"shard-0000.idx/8":  "331e78c456e8e5b119388889583e0fb1c1cdd04557aa77a10f2139e20eec7730",
	"shard-0000.idx/9":  "a0fd73a76f6fbdf09d305e1a3dcad7868e17ab9c33d4160a622d0c64e823ec3b",
	"shard-0001.idx/10": "abaf30ac6b8942a8513782b7ffa77305997ef9044b4ecdf9b07efdce1592843c",
	"shard-0001.idx/11": "d72f0f6f81d78a16b20d443dafb6e1e1a95a077879964b4de30dd3972997d719",
	"shard-0001.idx/12": "1789da85b4eb3d1f04ba74e19f91bf31816b7be0b10c41c27ee45b55d6ba9881",
	"shard-0001.idx/2":  "410481e7489f0a1f7bea2f639458fd64408f921eafba0e4e394434b62369ac9c",
	"shard-0001.idx/23": "02fde1cfeb4723fa924a66fb5b018e0b63f76898a8a6857f403d5f78fc0d01ef",
	"shard-0001.idx/7":  "168f4b7a6d0c450c24d2417845238e00e3d127f83c31ebeef6ff1865a6647aa0",
	"shard-0001.idx/8":  "ded048d10e0bde0cd317b9e22d8a28116ae131773f2a5885d690950d0a7ccebc",
	"shard-0001.idx/9":  "e8828b1c3439b5288c46ab5c3290fae9da252ed7e8de4e8c169d007f33e3bab4",
	"shard-0002.idx/10": "a3b4ed5b3098459c99b429ff8fbd32585c1f01695ff53b54fdddf31a0261a753",
	"shard-0002.idx/11": "f9f0a5f1d1f51f4015acc78054d0c212d3b0a78785a9f67c1ac1febce8ec9a59",
	"shard-0002.idx/12": "6ae87230c9bd723ea07caa9cc8956615221348230391791eec1e87034f68afa6",
	"shard-0002.idx/2":  "9708589b79ed3e1dea04dc36f04c322d396579a1e6ec3d6f4e3cdf019c200ef4",
	"shard-0002.idx/23": "1362b314052dfc5bab4ba23210288b29275c7077d8e43cdf6bc33f5088500ad7",
	"shard-0002.idx/7":  "91f514531f1158558f09edba893ccb072fb3ce8f75beb0984bf4dfb6c7b76477",
	"shard-0002.idx/8":  "a1401ab9569b0dc7e4f0b36cde330ad6a1f029ef810dd13ff05ae6a5d516d0a1",
	"shard-0002.idx/9":  "8bea859f5bdf8cea4655cde5ab2099fa09965399efd6fa7a6fc99c5b06f0c39d",
	"shard-0003.idx/10": "940dde29599c7c9b80593718d801632af497341ae393410a4bf28c07f8bea8ee",
	"shard-0003.idx/11": "69fd3847830b6313c1848c048aeeaffb5702a32afbe14f04f7bf74a8b006b4c4",
	"shard-0003.idx/12": "8ae2faa2988f58ae61b7bf8a18403e0d4f0861f96fc34d785095a38bea6b848a",
	"shard-0003.idx/2":  "8bdba01de3d1156cd2cafbfb50d71c1f40ecf9f72156d479fa3cb9858cb52a9c",
	"shard-0003.idx/23": "123c1a8c87d9a28d03d995957bd7eec6276ca35c15b8b0417436f28fc6622766",
	"shard-0003.idx/7":  "c63647ad5a495e8a239273f0d41e2ec3c1428bed2f9fd7ce88cb3268dce5d06a",
	"shard-0003.idx/8":  "8944c93ad94a102cc93b1c2e85201251550dc0c2f35cf8ca03150f6cfe616436",
	"shard-0003.idx/9":  "43c800ebd7cfdf2224cc2d0d79105333fa5558ab26df7191de5077787403dc6a",
}

// sectionHashes returns "file/section" -> sha256 hex of the section's
// bytes for factorSections of every shard file and graphSections of
// graph.idx in dir.
func sectionHashes(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range entries {
		ids := factorSections
		switch {
		case e.Name() == graphFileName:
			ids = graphSections
		case !strings.HasPrefix(e.Name(), "shard-"):
			continue
		}
		blob, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range containerSections(t, blob) {
			if slices.Contains(ids, s.id) {
				out[fmt.Sprintf("%s/%d", e.Name(), s.id)] = fmt.Sprintf("%x", sha256.Sum256(blob[s.off:s.off+s.bytes]))
			}
		}
	}
	return out
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
	checkGolden(t, "build sections", sectionHashes(t, filepath.Join(dir, "build")), goldenBuildSections)

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
	checkGolden(t, "apply sections", sectionHashes(t, filepath.Join(dir, "apply")), goldenApplySections)
}

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
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"kdash/internal/gen"
	"kdash/internal/lu"
	"kdash/internal/mmapio"
	"kdash/internal/reorder"
)

var goldenBuild = map[string]string{
	"graph.idx":      "9837d59550157996c6dba9e70b28d9747cfec88bcb2d2c5e26fd4855b9efd8ba",
	"manifest.json":  "8f30733f090150920d0e91fffaec0cbff31d9881f842b323861afb4f6383b85d",
	"partition.idx":  "93555a42d607fe6ba816535b036a031c289ab15d28018c1cc154c777f625c59a",
	"shard-0000.idx": "d873a3823e056b6a9b5b2d89bae53f6412984109eeb41b6465e1f1f016ab3312",
	"shard-0001.idx": "4ffe44b7a7cc3afbc9e43172d1f6a70ac0edd09b9ee30cb3ca7a55363f5fc8b7",
	"shard-0002.idx": "d01a5fad5e6503c9deb46c7d942e91eb80f1f735e4def92f1db402a59bc008a3",
	"shard-0003.idx": "363f236ca4f802ee6771829f74e04da2df067a60b3856824fbdbcd04a984f10f",
}

var goldenApply = map[string]string{
	"graph.idx":      "4e779c09655564991f8f2d20f13c154c8a9e1f7f1c37abf24a99a0ce7620b1a7",
	"manifest.json":  "5ce2e8c61dc431b7e34df90a8c49f7e7be6da5e4a4a72efe0028c90ae77588ed",
	"partition.idx":  "d81ee11133664f1c2bf67a92968074195c3375a41c0f518381a6f46ac15acbf1",
	"shard-0000.idx": "d21dd377e6b79ebb65e8d0855bc625789c63adc5f870e5779aca65fb67a17189",
	"shard-0001.idx": "e584fd2a6b68ea7fc14b2fde8c8cc37e414b250c1ab5837eec43f10c9d365a88",
	"shard-0002.idx": "d01a5fad5e6503c9deb46c7d942e91eb80f1f735e4def92f1db402a59bc008a3",
	"shard-0003.idx": "363f236ca4f802ee6771829f74e04da2df067a60b3856824fbdbcd04a984f10f",
}

// Sections whose bytes the container generation does not decide: a
// shard file's permutation (2), L^{-1}'s pointers and values (7, 9),
// U^{-1}'s (10, 12) and communities (23), and the snapshot's
// out-adjacency (2-4). Their hashes pin the factors and the graph
// across a change of container layout, which moves every file hash
// above. Keys 8 and 11 hash the factors' ids as the int32 sections of
// those numbers held before the compact encoding — L^{-1}'s and
// U^{-1}'s lines decoded from sections 24-26 and 27-29, L^{-1}'s unit
// diagonal put back — so the ids too are pinned across the encoding;
// the encoded sections 24-29 are pinned as they are. The generation
// that stopped storing L^{-1}'s diagonal and sink row and narrowed the
// pointers to int32 moved 7-10, 24, 25 and 28 and key 8; decoded, the
// diagonal put back and the parent's sink-row entries taken out, every
// id and value bit equals the parent's, and U^{-1}'s lines are
// unchanged.
var (
	factorSections = []uint32{2, 7, 9, 10, 12, 23, 24, 25, 26, 27, 28, 29}
	graphSections  = []uint32{2, 3, 4}
	// decodedIDs maps a pseudo-section to the sections of its factor:
	// pointers, values, gaps, escape pointers, escapes.
	decodedIDs = map[uint32][5]uint32{8: {7, 9, 24, 25, 26}, 11: {10, 12, 27, 28, 29}}
)

var goldenBuildSections = map[string]string{
	"graph.idx/2":       "817f69f60301f94d4709b48a316a983d3839103e1fd878f5e29b98ede7836b83",
	"graph.idx/3":       "047476eb901d865192c5d351d1e812776c13f1ef4ad0b440eaa0d8e086692c7d",
	"graph.idx/4":       "9b70879562dbfaa7680b85b08a3a3a2826e9aaa57b2fd4d312a44c1d81a5fc19",
	"shard-0000.idx/10": "a3614dbcefcf1df4547fda8649853db3e61ff419d32e03184f799570651922bc",
	"shard-0000.idx/11": "5d0b0a24fe3694b4a5ab287717494208ff5ffdbcbc4d14e5cfc894a281d6865c",
	"shard-0000.idx/12": "7e05f15b2eaa806bb10573842876466a34d12d6414e3765e3958798ba590d1e7",
	"shard-0000.idx/2":  "23a32783038e42b0e2969d54f21d182ab0cc7141a53ef3239a0692ebf413be36",
	"shard-0000.idx/23": "3774a859ec63b7487e3ea219c71913523cf053e2fafbeff7d8537b8b15af102b",
	"shard-0000.idx/24": "2d863d5fc27387ea8c01197bdaa9ecf2799cafe6852e733d0b89ea12b9389062",
	"shard-0000.idx/25": "af853d35c8aef4ba254b99aafd9fa527ad0da5bf722a2b8982cee1723a16246c",
	"shard-0000.idx/26": "4c85e3afe57867436a2f93c3d7c88b7c632ee1bfc728011ef68d488adcbf2380",
	"shard-0000.idx/27": "5101fcb4f7f5a77af09e295fded08a4d932d785424867aed71a1d168ac19857a",
	"shard-0000.idx/28": "d6bf3334886da3c4e31689448f05b76609c19035561ec0284aca01fa2b3dbd42",
	"shard-0000.idx/29": "8ff60f5c32156118e18dbfc04c5b24dd417024e72875a9985ec17602ecaacabf",
	"shard-0000.idx/7":  "797ef4a584f2d76c67af3c8421b54c40576eb1a93367a87cbab51b6768c01a71",
	"shard-0000.idx/8":  "3d31738d0b900879f29f09233c2f414b8b9bac9fdd81b70e4e3b259b20c164a2",
	"shard-0000.idx/9":  "78234cab2234923dbedca35974c78b577c714ba9b1ff9f061b6e96045c5b8fae",
	"shard-0001.idx/10": "d3a62c16585c1a227a49b669e88cb36bb151a0bb0e501f536881743588c6fbb4",
	"shard-0001.idx/11": "b3201e2118c4148a1f8fd4202facd009f690a6cbf7b8689cc7df54331e9bdf33",
	"shard-0001.idx/12": "ec3dc9ed3f3515e83c3d756b7db6c96eb7b139f58e63834cf37fc21cf95c7c88",
	"shard-0001.idx/2":  "e98a944e4ef4ed10eae3aa51975b738db7e76557697dd70e97ffb3bc8d7ba507",
	"shard-0001.idx/23": "02fde1cfeb4723fa924a66fb5b018e0b63f76898a8a6857f403d5f78fc0d01ef",
	"shard-0001.idx/24": "2fc6326535afbb037208e552e93171de1ae7b259d767c44a93021cc5df48884f",
	"shard-0001.idx/25": "af853d35c8aef4ba254b99aafd9fa527ad0da5bf722a2b8982cee1723a16246c",
	"shard-0001.idx/26": "0f36a684724766832bce19da614938372c476f7c56a868bd5c61c15711d43257",
	"shard-0001.idx/27": "e3f2667ae8785f347a7e1330a3c5bec92ea54fc88c164d566228f96e4ce83aba",
	"shard-0001.idx/28": "a79df8b05582bf5de2daf4084bfc2681012fc101acd2f208065ad2f7c1ce0fd8",
	"shard-0001.idx/29": "45c2fada3feb11fdfa05934e9d7db3c537df49c4c0164c1254a80459154abb19",
	"shard-0001.idx/7":  "a3f43f3011b0ddbb66a5b1298bb51f6942ca7c8b72fd650ce3897e7cf9659115",
	"shard-0001.idx/8":  "b4dce2361dc45d73b14471a004ee2addff70b739680f14750817518648965b77",
	"shard-0001.idx/9":  "bfc478a7cb001a68608e6b82e7365d8566b300a96df4103c7a0835339eca5020",
	"shard-0002.idx/10": "05a48621aac37b810b825287d52b58cab547e727a28c233a1b33f105fee1ad6d",
	"shard-0002.idx/11": "f9f0a5f1d1f51f4015acc78054d0c212d3b0a78785a9f67c1ac1febce8ec9a59",
	"shard-0002.idx/12": "6ae87230c9bd723ea07caa9cc8956615221348230391791eec1e87034f68afa6",
	"shard-0002.idx/2":  "9708589b79ed3e1dea04dc36f04c322d396579a1e6ec3d6f4e3cdf019c200ef4",
	"shard-0002.idx/23": "1362b314052dfc5bab4ba23210288b29275c7077d8e43cdf6bc33f5088500ad7",
	"shard-0002.idx/24": "43d40f6c7ea7400b4471f70c5122abba996b8bb9c203408306a5dd4fc7e68c11",
	"shard-0002.idx/25": "af853d35c8aef4ba254b99aafd9fa527ad0da5bf722a2b8982cee1723a16246c",
	"shard-0002.idx/26": "631400eb11d3a141376ce10bd245e151112c1379b5b4d85f94df41bb7b7b0cfd",
	"shard-0002.idx/27": "06ff71a13cbf8630547a46f6b077ed8dc6d46e16bd3e32cd301f2c2c6fd15850",
	"shard-0002.idx/28": "2e6452b350c2a373c0b5d7c155d31493e598e8af80463e8643e0ade12cfefc07",
	"shard-0002.idx/29": "aba5d18edc5350b190684f7c9a94ac48db548b82bc1690bdcee3970ce7ae0ee7",
	"shard-0002.idx/7":  "72508ec82a4d4bff7dfd87b9ac3ac06d606fe90b743bf3bd332094fa5b92c887",
	"shard-0002.idx/8":  "19c70e768f47980eed4bcda4f506165031be3cdfc5d027c191e5fd16f1782a1b",
	"shard-0002.idx/9":  "11fe8c5f858d517a6d3df3c0f0f327faf1579555c75459513c663991b647677f",
	"shard-0003.idx/10": "3897b3bc4e96f765a5a7f562dd988dd31e0e78d44b4d7eca36eac4a0e6d74206",
	"shard-0003.idx/11": "69fd3847830b6313c1848c048aeeaffb5702a32afbe14f04f7bf74a8b006b4c4",
	"shard-0003.idx/12": "8ae2faa2988f58ae61b7bf8a18403e0d4f0861f96fc34d785095a38bea6b848a",
	"shard-0003.idx/2":  "8bdba01de3d1156cd2cafbfb50d71c1f40ecf9f72156d479fa3cb9858cb52a9c",
	"shard-0003.idx/23": "123c1a8c87d9a28d03d995957bd7eec6276ca35c15b8b0417436f28fc6622766",
	"shard-0003.idx/24": "acf858db70cdc9f26fc6735e6f0aacb0683f2e60ca6b738f030780656a2ae00d",
	"shard-0003.idx/25": "0c57c81baa73200fbd56b2720152881052d80696d82ea5b0e03868a722e97796",
	"shard-0003.idx/26": "c26c98cd34b49f7e62d4ab9b4f0f9a60f3c93e1dfb42a76b1bfe9b48523b48fe",
	"shard-0003.idx/27": "c666c988d76ff5d83ce3b334a4aebda76e5364a638400ce1e2065f97c40a1db5",
	"shard-0003.idx/28": "0a1db1e538acf71699271c5e0ca3884c7263acd7524214e4d70418c82fb315a2",
	"shard-0003.idx/29": "19dbcb4511ecfea8588fff0f47b366d9134588444f7cebd59a947c2d162f56dc",
	"shard-0003.idx/7":  "6a4f3cdb017a7853e01d9f7a5ebf5a4ddd41bd249f132e41280a7f1e618dda1f",
	"shard-0003.idx/8":  "1e46118f0b4ff4b3a9e3bf813e71f5e41cabc1693eeb0d4fcc986ba91aa9ee15",
	"shard-0003.idx/9":  "cd15cdc8a5b7bbfb2b594fc049d279e28735fe58d6736cfd2339e6bb7831b69f",
}

var goldenApplySections = map[string]string{
	"graph.idx/2":       "8efdf46f0be41e9dae389f3f4944d2d38baff772df23b950826fc152cd170f50",
	"graph.idx/3":       "1c246eed4f5470c54a0c653de7fd7e9fcfe62c8fe0d76813db5de8cb95f427a4",
	"graph.idx/4":       "42c1c07370409c9dfb9003d0f5fc5ef42b989e8845a4860ee55e84228f37aff3",
	"shard-0000.idx/10": "bb64cb8cf1400006df2cdecee6b6043cd77abd8724c718dbf7aea6ce64d512e3",
	"shard-0000.idx/11": "a151964b19830ff01e3ed54c05e3390bfcf9fe6a66eaa9f007b5efce8af93ca5",
	"shard-0000.idx/12": "4754c795bb0e68d5beb651cbb107aa921c1583f61cfe16c80a0a84aafd1ed08c",
	"shard-0000.idx/2":  "1259c67310ab94085d1f90bc273b5af728dbd4cf064c675c6639fa026df370a6",
	"shard-0000.idx/23": "3774a859ec63b7487e3ea219c71913523cf053e2fafbeff7d8537b8b15af102b",
	"shard-0000.idx/24": "5de63d273508bf304db8afd53658b2d9d0b6391d17cc070a3c482022dbb57217",
	"shard-0000.idx/25": "af853d35c8aef4ba254b99aafd9fa527ad0da5bf722a2b8982cee1723a16246c",
	"shard-0000.idx/26": "92fa2e205387a5d27408e540221bbc83067b21d3cc98ef084cf32d7961d71258",
	"shard-0000.idx/27": "62969624fcc16a440557801f9219a11c819326b0578b02ae3449946dc0a8445e",
	"shard-0000.idx/28": "d6bf3334886da3c4e31689448f05b76609c19035561ec0284aca01fa2b3dbd42",
	"shard-0000.idx/29": "472c169788c2f2cdf6d574e04c5cbaf8163fc6f6e6490a3bd12ab45a11ba018a",
	"shard-0000.idx/7":  "917212b731d338375b8ca350bb8b07292c844a833f570c960b924622fd898e27",
	"shard-0000.idx/8":  "7e71e8dc3fcb6f792b894e927310c6653335bb018100edabb0319768c3d13001",
	"shard-0000.idx/9":  "a90928dc180f5c441340f557cfdc001a4ecfc79573388ed42544cff924b5423a",
	"shard-0001.idx/10": "6dc297af19a59cf1e721190cae223ead45e0243d96557c51d4c81a213b31ea7c",
	"shard-0001.idx/11": "d72f0f6f81d78a16b20d443dafb6e1e1a95a077879964b4de30dd3972997d719",
	"shard-0001.idx/12": "1789da85b4eb3d1f04ba74e19f91bf31816b7be0b10c41c27ee45b55d6ba9881",
	"shard-0001.idx/2":  "410481e7489f0a1f7bea2f639458fd64408f921eafba0e4e394434b62369ac9c",
	"shard-0001.idx/23": "02fde1cfeb4723fa924a66fb5b018e0b63f76898a8a6857f403d5f78fc0d01ef",
	"shard-0001.idx/24": "967ff50f6edabb3885998d7fa1d3c576776676447e38a63e8246e8583d1102b6",
	"shard-0001.idx/25": "af853d35c8aef4ba254b99aafd9fa527ad0da5bf722a2b8982cee1723a16246c",
	"shard-0001.idx/26": "92fa2e205387a5d27408e540221bbc83067b21d3cc98ef084cf32d7961d71258",
	"shard-0001.idx/27": "509a994a2d7d5cb7aeff6b34dcac9398074006004ddc533b815e458a5c2d7f53",
	"shard-0001.idx/28": "a79df8b05582bf5de2daf4084bfc2681012fc101acd2f208065ad2f7c1ce0fd8",
	"shard-0001.idx/29": "8db99afe510277d28f070a3292a233688715e5ad3243a027c89ce676f46b089a",
	"shard-0001.idx/7":  "3ed2bd18500bc226c6899fa1abba8dbc23c85f916101e58dc6beef22cfa6d645",
	"shard-0001.idx/8":  "9b1a584ed4c06d95fd2c202431413dd50ff6970335f692547b7fc49d2aac16bf",
	"shard-0001.idx/9":  "d1731d5560601c7d525fe5b997fc0765df811991242d67b38de9092b0b49cf33",
	"shard-0002.idx/10": "05a48621aac37b810b825287d52b58cab547e727a28c233a1b33f105fee1ad6d",
	"shard-0002.idx/11": "f9f0a5f1d1f51f4015acc78054d0c212d3b0a78785a9f67c1ac1febce8ec9a59",
	"shard-0002.idx/12": "6ae87230c9bd723ea07caa9cc8956615221348230391791eec1e87034f68afa6",
	"shard-0002.idx/2":  "9708589b79ed3e1dea04dc36f04c322d396579a1e6ec3d6f4e3cdf019c200ef4",
	"shard-0002.idx/23": "1362b314052dfc5bab4ba23210288b29275c7077d8e43cdf6bc33f5088500ad7",
	"shard-0002.idx/24": "43d40f6c7ea7400b4471f70c5122abba996b8bb9c203408306a5dd4fc7e68c11",
	"shard-0002.idx/25": "af853d35c8aef4ba254b99aafd9fa527ad0da5bf722a2b8982cee1723a16246c",
	"shard-0002.idx/26": "631400eb11d3a141376ce10bd245e151112c1379b5b4d85f94df41bb7b7b0cfd",
	"shard-0002.idx/27": "06ff71a13cbf8630547a46f6b077ed8dc6d46e16bd3e32cd301f2c2c6fd15850",
	"shard-0002.idx/28": "2e6452b350c2a373c0b5d7c155d31493e598e8af80463e8643e0ade12cfefc07",
	"shard-0002.idx/29": "aba5d18edc5350b190684f7c9a94ac48db548b82bc1690bdcee3970ce7ae0ee7",
	"shard-0002.idx/7":  "72508ec82a4d4bff7dfd87b9ac3ac06d606fe90b743bf3bd332094fa5b92c887",
	"shard-0002.idx/8":  "19c70e768f47980eed4bcda4f506165031be3cdfc5d027c191e5fd16f1782a1b",
	"shard-0002.idx/9":  "11fe8c5f858d517a6d3df3c0f0f327faf1579555c75459513c663991b647677f",
	"shard-0003.idx/10": "3897b3bc4e96f765a5a7f562dd988dd31e0e78d44b4d7eca36eac4a0e6d74206",
	"shard-0003.idx/11": "69fd3847830b6313c1848c048aeeaffb5702a32afbe14f04f7bf74a8b006b4c4",
	"shard-0003.idx/12": "8ae2faa2988f58ae61b7bf8a18403e0d4f0861f96fc34d785095a38bea6b848a",
	"shard-0003.idx/2":  "8bdba01de3d1156cd2cafbfb50d71c1f40ecf9f72156d479fa3cb9858cb52a9c",
	"shard-0003.idx/23": "123c1a8c87d9a28d03d995957bd7eec6276ca35c15b8b0417436f28fc6622766",
	"shard-0003.idx/24": "acf858db70cdc9f26fc6735e6f0aacb0683f2e60ca6b738f030780656a2ae00d",
	"shard-0003.idx/25": "0c57c81baa73200fbd56b2720152881052d80696d82ea5b0e03868a722e97796",
	"shard-0003.idx/26": "c26c98cd34b49f7e62d4ab9b4f0f9a60f3c93e1dfb42a76b1bfe9b48523b48fe",
	"shard-0003.idx/27": "c666c988d76ff5d83ce3b334a4aebda76e5364a638400ce1e2065f97c40a1db5",
	"shard-0003.idx/28": "0a1db1e538acf71699271c5e0ca3884c7263acd7524214e4d70418c82fb315a2",
	"shard-0003.idx/29": "19dbcb4511ecfea8588fff0f47b366d9134588444f7cebd59a947c2d162f56dc",
	"shard-0003.idx/7":  "6a4f3cdb017a7853e01d9f7a5ebf5a4ddd41bd249f132e41280a7f1e618dda1f",
	"shard-0003.idx/8":  "1e46118f0b4ff4b3a9e3bf813e71f5e41cabc1693eeb0d4fcc986ba91aa9ee15",
	"shard-0003.idx/9":  "cd15cdc8a5b7bbfb2b594fc049d279e28735fe58d6736cfd2339e6bb7831b69f",
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
		if e.Name() == graphFileName {
			continue
		}
		for id, secs := range decodedIDs {
			out[fmt.Sprintf("%s/%d", e.Name(), id)] = fmt.Sprintf("%x", sha256.Sum256(decodedIDBytes(t, blob, secs)))
		}
	}
	return out
}

// decodedIDBytes decodes the factor stored in secs (pointers, values,
// gaps, escape pointers, escapes) of a shard file and returns its ids,
// line after line, as little-endian int32s.
func decodedIDBytes(t *testing.T, blob []byte, secs [5]uint32) []byte {
	t.Helper()
	f, err := mmapio.FromBytes(blob)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for _, id := range decodedIDList(t, f, secs) {
		out = binary.LittleEndian.AppendUint32(out, uint32(id))
	}
	return out
}

// decodedIDList decodes the factor stored in secs of a shard file's
// container and returns its ids, line after line, L^{-1}'s unit
// diagonal put back as each of its lines' first id.
func decodedIDList(t testing.TB, f *mmapio.File, secs [5]uint32) []int32 {
	t.Helper()
	m := readFactor(t, f, secs)
	var ids []int32
	for j := 0; j < m.N; j++ {
		if m.Unit {
			ids = append(ids, int32(j))
		}
		for _, id := range m.Line(j, nil) {
			ids = append(ids, int32(id))
		}
	}
	return ids
}

// readFactor reads the inverse factor stored in secs (pointers, values,
// gaps, escape pointers, escapes) of a shard file's container: L^{-1},
// a unit factor, when secs are decodedIDs[8]. Its row bound is left at
// N.
func readFactor(t testing.TB, f *mmapio.File, secs [5]uint32) *lu.Compact {
	t.Helper()
	m := &lu.Compact{Unit: secs == decodedIDs[8]}
	var err error
	if m.Ptr, err = f.Int32s(secs[0]); err == nil {
		if m.Val, err = f.Floats(secs[1]); err == nil {
			if m.Gap, err = f.Bytes(secs[2]); err == nil {
				if m.EscPtr, err = f.Int32s(secs[3]); err == nil {
					m.Esc, err = f.Int32s(secs[4])
				}
			}
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	m.N = len(m.Ptr) - 1
	m.Rows = m.N
	return m
}

// widened reads int32 section id of f as ints.
func widened(t testing.TB, f *mmapio.File, id uint32) []int {
	t.Helper()
	xs, err := f.Int32s(id)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int, len(xs))
	for i, x := range xs {
		out[i] = int(x)
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

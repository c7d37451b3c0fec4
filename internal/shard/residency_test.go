package shard

import (
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"kdash/internal/gen"
	"kdash/internal/reorder"
)

// Residency budgets of an opened directory's partition tables: the
// assignment stays in the partition container, the local ids and the
// node lists are one int32 each per node; a cut edge is its 16-byte
// record plus at most one cut row and one cut-row pointer, and each
// shard's pointer list has one more.
const (
	// A shard's inverse factors: a value, a gap byte and the rare
	// escaped int32 id per stored entry, and two int32 pointers per
	// line of each factor (entries, escapes). Entries are counted as
	// NNZInverse counts them, L^{-1}'s implicit unit diagonal included;
	// the residency graph measures 8.89 B per entry.
	factorBytesPerEntry    = 9.0
	factorBytesPerLine     = 8
	nodeTableBytesPerNode  = 8
	cutTableBytesPerCut    = 32
	cutTableBytesPerShard  = 8
	residencyQueryBatch    = 300
	residencyQueryK        = 10
	residencyShards        = 4
	residencyNodes         = 2000
	residencyCommunitySize = 20
)

// partitionTableBytes reports the heap bytes of sx's node tables (home
// unless it aliases the partition container, local, every part's node
// list) and cut tables (every part's cut records, cut rows and cut-row
// pointers), each slice at its capacity and element size.
func partitionTableBytes(sx *ShardedIndex) (nodes, cuts int64) {
	size := func(capacity int, elem uintptr) int64 { return int64(capacity) * int64(elem) }
	nodes = size(cap(sx.local), unsafe.Sizeof(sx.local[0]))
	if sx.homeBack == nil {
		nodes += size(cap(sx.home), unsafe.Sizeof(sx.home[0]))
	}
	for _, p := range sx.parts {
		nodes += size(cap(p.nodes), unsafe.Sizeof(p.nodes[0]))
		cuts += size(cap(p.cuts), unsafe.Sizeof(cutEdge{})) +
			size(cap(p.cutRows), unsafe.Sizeof(p.cutRows[0])) +
			size(cap(p.cutRowPtr), unsafe.Sizeof(p.cutRowPtr[0]))
	}
	return nodes, cuts
}

// pooledScratch reports the bytes of the dense vectors sx's pool holds.
func pooledScratch(sx *ShardedIndex) (pooled int64) {
	for _, w := range sx.vecs.free.items {
		pooled += 8 * int64(len(w.W))
	}
	return pooled
}

// idleScratch reports what the process account should hold for sx: the
// vectors its pool holds and its idle push states' own arrays.
func idleScratch(t *testing.T, sx *ShardedIndex) int64 {
	t.Helper()
	held := pooledScratch(sx)
	for _, st := range sx.pushPool.items {
		if st.tree == nil || st.scratch.Load() != st.scratchBytes() {
			t.Fatalf("an idle state counts %d bytes, holds %d", st.scratch.Load(), st.scratchBytes())
		}
		held += st.scratchBytes()
	}
	return held
}

// TestQueryScratchReleasedWithItsParts checks the process account of
// pooled query scratch: queries raise it by what the index's vector
// pool allocates, and collecting the index takes that share back out.
// Other tests' indexes only ever leave the account meanwhile.
func TestQueryScratchReleasedWithItsParts(t *testing.T) {
	sx := damageIndex(t)
	for q := 0; q < 50; q++ {
		if _, _, err := sx.TopK(q, 5); err != nil {
			t.Fatal(err)
		}
	}
	share := pooledScratch(sx)
	if share == 0 {
		t.Fatal("queries pooled no scratch")
	}
	held := QueryScratchBytes()
	if held < share {
		t.Fatalf("the process counts %d bytes of query scratch, the index's parts alone hold %d", held, share)
	}
	sx = nil
	deadline := time.Now().Add(10 * time.Second)
	for QueryScratchBytes() > held-share {
		if time.Now().After(deadline) {
			t.Fatalf("query scratch %d bytes after the index was dropped, want at most %d", QueryScratchBytes(), held-share)
		}
		collect()
	}
}

// TestPushStatePoolSurvivesGC pins the push-state pool's policy: a
// serial query stream reuses one state across forced collections (a
// sync.Pool drops its items and re-creates them), a burst of
// 4×GOMAXPROCS concurrent queries leaves at most GOMAXPROCS idle states,
// and the process's query-scratch account grows by exactly what the idle
// states and the index's vector pool hold, after the serial stream and
// again once the burst's surplus states are collected.
func TestPushStatePoolSurvivesGC(t *testing.T) {
	collect() // earlier tests' scratch must leave the account before base
	base := QueryScratchBytes()
	sx := damageIndex(t)
	for i := 0; i < 90; i++ {
		if i%30 == 29 {
			runtime.GC()
			runtime.GC()
		}
		if _, _, err := sx.TopK(i*13%sx.N(), 10); err != nil {
			t.Fatal(err)
		}
	}
	if got := sx.pushStates.Load(); got != 1 {
		t.Fatalf("a serial stream across two collections created %d push states, want 1", got)
	}
	if got, held := QueryScratchBytes()-base, idleScratch(t, sx); got != held {
		t.Fatalf("the serial stream raised the query-scratch account by %d bytes, the idle state and the vector pool hold %d", got, held)
	}

	procs := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, 4*procs)
	for w := 0; w < 4*procs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < 5; i++ {
				if _, _, err := sx.TopK((w*101+i*7)%sx.N(), 10); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if idle := len(sx.pushPool.items); idle > procs || idle == 0 {
		t.Fatalf("the burst left %d idle push states, want 1..%d (GOMAXPROCS)", idle, procs)
	}
	held := idleScratch(t, sx)
	deadline := time.Now().Add(10 * time.Second)
	for QueryScratchBytes()-base != held {
		if time.Now().After(deadline) {
			t.Fatalf("the query-scratch account grew by %d bytes, the idle states and the vector pool hold %d", QueryScratchBytes()-base, held)
		}
		collect() // the states the burst left over are counted until collected
	}
	runtime.KeepAlive(sx)
}

// TestOpenedDirectoryHoldsOnlyWhatQueriesRead opens a saved directory,
// runs a few hundred queries and asserts that the process holds only
// what the push and the rank read: the graph snapshot never derived its
// in-rows (its heap bytes stay 0), no shard block holds an adjacency,
// the sealed inverse factors stay within their per-entry and per-line
// budget (the compact id encoding; int32 ids cost 12 B/entry), and the
// partition and cut tables stay within their per-node and per-cut-edge
// budgets. An Apply successor's rebuilt blocks hold no
// adjacency either, and its graph holds only its out-rows.
func TestOpenedDirectoryHoldsOnlyWhatQueriesRead(t *testing.T) {
	g := gen.CommunityOverlay(residencyNodes, 3, residencyCommunitySize, 0.995, 7)
	built, err := Build(g, Options{Shards: residencyShards, Reorder: reorder.Hybrid, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "idx")
	if err := built.Save(dir); err != nil {
		t.Fatal(err)
	}
	sx, err := Open(dir, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sx.Close()
	for i := 0; i < residencyQueryBatch; i++ {
		if _, _, err := sx.TopK(i*7%sx.N(), residencyQueryK); err != nil {
			t.Fatal(err)
		}
	}
	if h := sx.Graph().HeapBytes(); h != 0 {
		t.Errorf("the opened snapshot holds %d heap bytes: its in-rows were derived", h)
	}
	if pooled := pooledScratch(sx); pooled == 0 || QueryScratchBytes() < pooled {
		t.Errorf("the process counts %d bytes of query scratch, the index's pools hold %d", QueryScratchBytes(), pooled)
	}
	var factors, entries, lines int64
	for _, p := range sx.parts {
		ix := p.tryIndex()
		factors += ix.FactorBytes()
		entries += int64(ix.Stats().NNZInverse)
		lines += 2 * int64(ix.N()+1)
	}
	if budget := int64(factorBytesPerEntry*float64(entries)) + factorBytesPerLine*lines; factors > budget {
		t.Errorf("the sealed factors hold %d bytes for %d entries, budget %d (%.1f B/entry + %d B/line)", factors, entries, budget, factorBytesPerEntry, factorBytesPerLine)
	}
	nodes, cuts := partitionTableBytes(sx)
	if budget := int64(nodeTableBytesPerNode * sx.N()); nodes > budget {
		t.Errorf("node tables hold %d bytes, budget %d (%d B/node)", nodes, budget, nodeTableBytesPerNode)
	}
	if budget := int64(cutTableBytesPerCut*sx.stats.CutEdges + cutTableBytesPerShard*sx.Shards()); cuts > budget {
		t.Errorf("cut tables hold %d bytes, budget %d (%d B/cut edge)", cuts, budget, cutTableBytesPerCut)
	}

	next, _, err := sx.Apply(intraShardEdge(t, sx, 1))
	if err != nil {
		t.Fatal(err)
	}
	ng := next.Graph()
	if want := int64(8*(ng.N()+1) + 12*ng.M()); ng.HeapBytes() != want {
		t.Errorf("the successor graph holds %d heap bytes, want its out-rows' %d", ng.HeapBytes(), want)
	}
}

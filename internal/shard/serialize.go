package shard

// Sharded-index persistence. A sharded index is saved as a *directory*:
// one binary core-index file per shard plus a JSON manifest tying them
// together — the manifest is the unit a deployment ships around, and
// individual shard files are fetched and opened independently.
//
//	indexdir/
//	  manifest.json      version, c, node/edge/shard counts, file names, stats
//	  graph.idx          graph snapshot (graph.WriteSnapshot) — what queries
//	                     rank over and updates replay onto
//	  partition.idx      the assignment (node -> shard) and every shard's
//	                     outgoing cut edges (see writePartition)
//	  shard-0000.idx     core.Index.Save format, one per shard
//	  ...
//
// Every file but the manifest is an internal/mmapio container: section
// and table checksums, int32 ids (the inverse factors' as gap bytes with
// int32 escapes), float64 weights, int64 pointers (the inverse factors'
// int32). Open
// is the general entry point: LoadOptions select eager vs lazy shard
// opens. Both read the partition container up front — O(n) bytes, no
// factor data — verify it, cross-check it against the manifest, copy
// the cut lists out and keep the container, whose assignment section
// the index aliases. An eager open then opens the
// graph snapshot into sealed memory and every shard file; a lazy one
// defers each shard file to the first query that solves the shard, and
// the snapshot to the first query that ranks, so a worker (which never
// ranks) never reads it. A directory of any other manifest version is
// refused with the rebuild instruction. See docs/ARCHITECTURE.md for
// the byte-level format specs.
//
// Local ids are not persisted: both writer and reader assign them by
// ascending global id within each shard, so the assignment array fully
// determines the mapping. The ghost-sink flag is not persisted either —
// a shard has a sink exactly when it has outgoing cut edges, so the cut
// lists determine it before any shard file is opened (the open
// validates the file agrees).

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"

	"kdash/internal/core"
	"kdash/internal/graph"
	"kdash/internal/mmapio"
	"kdash/internal/reorder"
)

// ManifestName is the file that marks a directory as a sharded index.
const ManifestName = "manifest.json"

// manifestVersion is the one directory generation Open reads. It is
// bumped whenever the layout of the directory or of any file in it
// changes, and Open refuses every other version with the rebuild
// instruction: every directory since version 2 carries its graph
// snapshot, so any index can be rebuilt from its own files. Version 5
// dropped the int32 factor strips from the shard files; version 6
// stored every row and column id of a shard file as int32 and no longer
// stored the tables the adjacency and permutation fix; version 7 stores
// the graph snapshot, the assignment and the cut lists as checksummed
// containers (graph.idx, partition.idx) instead of a TSV edge list and
// two unchecked binary files, and each shard file keeps its block's
// Louvain communities; version 8 stores neither the snapshot's
// in-adjacency nor a shard's block adjacency; version 9 stores the
// shard files' inverse factors in the compact id encoding (a gap byte
// per entry, escaped ids int32); version 10 stores their line pointers
// as int32 and L^{-1} with neither its unit diagonal nor the ghost
// sink's row. An older directory's shard files are a generation this
// build does not read, so a lazy open of one would fail query by query.
const manifestVersion = 10

// The directory's fixed file names; the manifest records them, and Open
// accepts any plain name inside the directory.
const (
	graphFileName     = "graph.idx"
	partitionFileName = "partition.idx"
)

// manifest is the JSON document written to ManifestName.
type manifest struct {
	Version       int      `json:"version"`
	Restart       float64  `json:"restart"`
	Nodes         int      `json:"nodes"`
	Edges         int      `json:"edges"`
	Shards        int      `json:"shards"`
	QueryTol      float64  `json:"queryTol"`
	ShardFiles    []string `json:"shardFiles"`
	PartitionFile string   `json:"partitionFile"`

	// The dynamic-update state: the graph snapshot, the build inputs
	// Apply replays (reorder method, seed), the epoch number and the
	// per-shard staleness counters.
	GraphFile      string `json:"graphFile"`
	Reorder        string `json:"reorder,omitempty"`
	Seed           int64  `json:"seed,omitempty"`
	Epoch          int    `json:"epoch,omitempty"`
	StalenessLimit int    `json:"stalenessLimit,omitempty"`
	Staleness      []int  `json:"staleness,omitempty"`

	// The WAL position this snapshot covers: the last log sequence
	// number whose delta is already folded into the saved factors;
	// recovery replays only records past it, rescanning the log
	// directory for them.
	WALSeq uint64 `json:"walSeq,omitempty"`

	Stats struct {
		Sizes         []int   `json:"sizes"`
		CutEdges      int     `json:"cutEdges"`
		CutWeightFrac float64 `json:"cutWeightFrac"`
		NNZInverse    int     `json:"nnzInverse"`
		NNZShards     []int   `json:"nnzShards"` // per shard, so stats need no shard open
		Communities   int     `json:"communities"`
		Modularity    float64 `json:"modularity"`
	} `json:"stats"`
}

// IsShardedIndexDir reports whether path is a directory containing a
// sharded-index manifest — the check the CLIs make before Open, so a
// path that is no index directory is refused with the command that
// builds one.
func IsShardedIndexDir(path string) bool {
	fi, err := os.Stat(path)
	if err != nil || !fi.IsDir() {
		return false
	}
	_, err = os.Stat(filepath.Join(path, ManifestName))
	return err == nil
}

// Save writes the sharded index into dir, creating it if needed, and
// makes it durable: every file is fsynced, the manifest — which makes
// the directory an index — is written last, and the directory is
// fsynced. Shard files are written in the sectioned core layout that
// Open reads — including by an index that was itself lazily opened:
// saving forces any still-deferred shard open, and the successor
// process opens the new files.
func (sx *ShardedIndex) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("shard: creating index directory: %w", err)
	}
	var m manifest
	m.Version = manifestVersion
	m.Restart = sx.c
	m.Nodes = sx.n
	m.Shards = len(sx.parts)
	m.QueryTol = sx.qtol
	m.PartitionFile = partitionFileName
	m.Reorder = sx.method.String()
	m.Seed = sx.seed
	m.Epoch = sx.epoch
	m.StalenessLimit = sx.stalenessLimit
	m.Staleness = sx.staleness
	m.WALSeq = sx.walSeq
	if err := sx.ensureGraph(); err != nil { // a deferred snapshot must open to be re-saved
		return fmt.Errorf("shard: loading graph snapshot: %w", err)
	}
	m.Edges = sx.g.M()
	m.GraphFile = graphFileName
	if err := writeFile(filepath.Join(dir, m.GraphFile), sx.g.WriteSnapshot); err != nil {
		return fmt.Errorf("shard: saving graph snapshot: %w", err)
	}
	m.Stats.Sizes = sx.stats.Sizes
	m.Stats.CutEdges = sx.stats.CutEdges
	m.Stats.CutWeightFrac = sx.stats.CutWeightFrac
	m.Stats.Communities = sx.stats.Communities
	m.Stats.Modularity = sx.stats.Modularity
	nnzTotal := 0
	for si, p := range sx.parts {
		name := fmt.Sprintf("shard-%04d.idx", si)
		m.ShardFiles = append(m.ShardFiles, name)
		ix, err := p.index() // forces a still-deferred open
		if err != nil {
			return fmt.Errorf("shard: saving shard %d: %w", si, err)
		}
		nnzTotal += ix.Stats().NNZInverse
		m.Stats.NNZShards = append(m.Stats.NNZShards, ix.Stats().NNZInverse)
		if err := writeFile(filepath.Join(dir, name), ix.Save); err != nil {
			return fmt.Errorf("shard: saving shard %d: %w", si, err)
		}
	}
	// Every shard is open now: the aggregate is the sum of the per-shard
	// counts just written.
	m.Stats.NNZInverse = nnzTotal
	if err := writeFile(filepath.Join(dir, m.PartitionFile), sx.writePartition); err != nil {
		return fmt.Errorf("shard: saving partition: %w", err)
	}
	blob, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return fmt.Errorf("shard: encoding manifest: %w", err)
	}
	if err := writeFile(filepath.Join(dir, ManifestName), func(w io.Writer) error {
		_, err := w.Write(append(blob, '\n'))
		return err
	}); err != nil {
		return fmt.Errorf("shard: writing manifest: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("shard: syncing index directory: %w", err)
	}
	return nil
}

// writeFile creates path, writes it through write and fsyncs it before
// closing it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = fsys.sync(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Section ids of the partition container (partition.idx). The cut
// edges of shard si are entries [cutPtr[si], cutPtr[si+1]) of the three
// cut sections, sorted by source; their endpoints are global ids, so
// the open checks every one against the assignment.
const (
	partMeta     = 1 // bytes: tag "KDPTV1\x00\x00", uint64 n, uint64 shards
	partAssign   = 2 // int32[n]: node -> shard
	partCutPtr   = 3 // int64[shards+1]
	partCutSrc   = 4 // int32[cuts]: global source ids
	partCutDst   = 5 // int32[cuts]: global destination ids
	partCutW     = 6 // float64[cuts]: (1-c)-scaled transition probabilities
	partMetaSize = 24
	partTag      = "KDPTV1\x00\x00"
)

// writePartition writes the assignment and every shard's cut list as
// the partition container.
func (sx *ShardedIndex) writePartition(w io.Writer) error {
	meta := make([]byte, partMetaSize)
	copy(meta, partTag)
	binary.LittleEndian.PutUint64(meta[8:], uint64(sx.n))
	binary.LittleEndian.PutUint64(meta[16:], uint64(len(sx.parts)))
	ptr := make([]int, 1, len(sx.parts)+1)
	var src, dst []int32
	var wt []float64
	for _, p := range sx.parts {
		for k, lv := range p.cutRows {
			for _, e := range p.rowCuts(k) {
				src = append(src, p.nodes[lv])
				dst = append(dst, sx.parts[e.dstShard].nodes[e.dst])
				wt = append(wt, e.w)
			}
		}
		ptr = append(ptr, len(src))
	}
	sw := mmapio.NewWriter()
	sw.AddBytes(partMeta, meta)
	sw.AddInt32s(partAssign, sx.home)
	sw.AddInts(partCutPtr, ptr)
	sw.AddInt32s(partCutSrc, src)
	sw.AddInt32s(partCutDst, dst)
	sw.AddFloats(partCutW, wt)
	_, err := sw.WriteTo(w)
	return err
}

// LoadOptions configures Open.
type LoadOptions struct {
	// Lazy defers each shard file's open to the first query that solves
	// the shard, and the graph snapshot's open to the first query that
	// ranks: Open returns after reading only the manifest and the
	// partition container, so a 64-shard index serves a query against
	// shard 3 before shard 60's file is ever touched. Without Lazy every
	// shard and the snapshot open (and validate) before Open returns.
	Lazy bool
}

// Open reads a sharded index previously written by Save. Every
// shard file and the graph snapshot are read into sealed memory outside
// the Go heap (where the platform maps memory) and checksummed and
// range-checked when they open; see LoadOptions. They are released when
// no epoch using them is reachable, or at once by Close.
func Open(dir string, opt LoadOptions) (*ShardedIndex, error) {
	blob, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("shard: reading manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		return nil, fmt.Errorf("shard: decoding manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("shard: manifest version %d (this build reads %d): %w", m.Version, manifestVersion, core.ErrUnsupportedFormat)
	}
	if m.Nodes <= 0 || m.Nodes > graph.MaxNodes || m.Shards <= 0 || m.Shards > m.Nodes || m.Edges < 0 ||
		len(m.ShardFiles) != m.Shards || len(m.Stats.NNZShards) != m.Shards || len(m.Stats.Sizes) != m.Shards {
		return nil, fmt.Errorf("shard: corrupt manifest (nodes=%d edges=%d shards=%d files=%d nnz counts=%d sizes=%d)",
			m.Nodes, m.Edges, m.Shards, len(m.ShardFiles), len(m.Stats.NNZShards), len(m.Stats.Sizes))
	}
	if m.Restart <= 0 || m.Restart >= 1 {
		return nil, fmt.Errorf("shard: corrupt manifest (restart %v)", m.Restart)
	}
	method, err := reorder.Parse(m.Reorder)
	if err != nil {
		return nil, fmt.Errorf("shard: corrupt manifest: %w", err)
	}
	// File references must be plain names inside the directory.
	names := append([]string{m.PartitionFile, m.GraphFile}, m.ShardFiles...)
	for _, name := range names {
		if name == "" || name != filepath.Base(name) {
			return nil, fmt.Errorf("shard: corrupt manifest (file reference %q)", name)
		}
	}
	sx := &ShardedIndex{
		n:              m.Nodes,
		c:              m.Restart,
		qtol:           m.QueryTol,
		parts:          make([]*part, m.Shards),
		method:         method,
		seed:           m.Seed,
		epoch:          m.Epoch,
		stalenessLimit: m.StalenessLimit,
		walSeq:         m.WALSeq,
	}
	if sx.qtol <= 0 {
		sx.qtol = DefaultQueryTol
	}
	if sx.stalenessLimit == 0 {
		sx.stalenessLimit = DefaultStalenessLimit
	}
	switch {
	case m.Staleness == nil:
		sx.staleness = make([]int, m.Shards)
	case len(m.Staleness) == m.Shards:
		sx.staleness = append([]int(nil), m.Staleness...)
	default:
		return nil, fmt.Errorf("shard: corrupt manifest (%d staleness counters for %d shards)", len(m.Staleness), m.Shards)
	}
	// The partition loads eagerly: every shard's residual bookkeeping
	// needs the assignment and cut lists, and the cuts fix each shard's
	// ghost sink before its file is opened — a shard carries a sink
	// exactly when it has outgoing cut edges, because Build adds one for
	// any positive leaked weight and edge weights are strictly positive.
	partPath := filepath.Join(dir, m.PartitionFile)
	if err := sx.readPartition(partPath, &m); err != nil {
		return nil, fmt.Errorf("shard: partition %s: %w", partPath, err)
	}
	graphPath := filepath.Join(dir, m.GraphFile)
	load := func() (*graph.Graph, error) {
		g, err := graph.OpenSnapshot(graphPath)
		if errors.Is(err, graph.ErrUnsupportedSnapshot) {
			return nil, fmt.Errorf("shard: %w: %w", core.ErrUnsupportedFormat, err)
		}
		if err != nil {
			return nil, fmt.Errorf("shard: %w", err)
		}
		if g.N() != m.Nodes || g.M() != m.Edges {
			g.Close()
			return nil, fmt.Errorf("shard: graph snapshot %s has %d nodes and %d edges, manifest says %d and %d", graphPath, g.N(), g.M(), m.Nodes, m.Edges)
		}
		if err := sx.checkCuts(g); err != nil {
			g.Close()
			return nil, fmt.Errorf("shard: graph snapshot %s disagrees with %s: %w", graphPath, partPath, err)
		}
		return g, nil
	}
	if opt.Lazy {
		// Opening the O(m) snapshot waits for the first query that ranks.
		sx.gLoad = load
	} else {
		g, err := load()
		if err != nil {
			return nil, err
		}
		sx.setGraph(g)
	}
	for si, name := range m.ShardFiles {
		p := sx.parts[si]
		p.sink = len(p.cuts) > 0
		p.nnzHint = m.Stats.NNZShards[si]
		p.lazy = newShardOpener(si, len(p.nodes), sx.PartLen(si), sx.c, filepath.Join(dir, name))
	}
	sx.poolVectors(nil)
	if !opt.Lazy {
		if err := sx.OpenAll(); err != nil {
			sx.Close() // release the containers that did open
			return nil, fmt.Errorf("shard: %w", err)
		}
	}
	sx.stats = BuildStats{
		Shards:        m.Shards,
		Sizes:         m.Stats.Sizes,
		CutEdges:      m.Stats.CutEdges,
		CutWeightFrac: m.Stats.CutWeightFrac,
		NNZInverse:    m.Stats.NNZInverse,
		Communities:   m.Stats.Communities,
		Modularity:    m.Stats.Modularity,
	}
	return sx, nil
}

// readPartition opens the partition container, verifies it, checks it
// against the manifest m — node and shard counts, every shard's size
// and the cut-edge total — and installs the assignment, the local ids
// and every shard's cut list, each cut checked against the assignment:
// its source owned by the shard listing it, its destination by another.
// The assignment aliases the container, which stays open while an epoch
// sharing it is reachable; the cut lists are copied out into the form
// the push scatters along.
func (sx *ShardedIndex) readPartition(path string, m *manifest) (err error) {
	f, err := mmapio.Open(path)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	meta, err := f.Bytes(partMeta)
	if err != nil {
		return err
	}
	if len(meta) != partMetaSize || string(meta[:len(partTag)]) != partTag {
		return fmt.Errorf("not a partition container (bad meta section)")
	}
	if n, s := binary.LittleEndian.Uint64(meta[8:]), binary.LittleEndian.Uint64(meta[16:]); n != uint64(m.Nodes) || s != uint64(m.Shards) {
		return fmt.Errorf("%d nodes in %d shards, manifest says %d in %d", n, s, m.Nodes, m.Shards)
	}
	assign, err := f.Int32s(partAssign)
	if err != nil {
		return err
	}
	ptr, err := f.Ints(partCutPtr)
	if err != nil {
		return err
	}
	src, err := f.Int32s(partCutSrc)
	if err != nil {
		return err
	}
	dst, err := f.Int32s(partCutDst)
	if err != nil {
		return err
	}
	wt, err := f.Floats(partCutW)
	if err != nil {
		return err
	}
	if len(assign) != sx.n {
		return fmt.Errorf("assignment has %d entries, want %d", len(assign), sx.n)
	}
	s := len(sx.parts)
	if len(ptr) != s+1 || ptr[0] != 0 || ptr[s] != len(src) || len(dst) != len(src) || len(wt) != len(src) {
		return fmt.Errorf("corrupt cut sections (%d pointers, %d/%d/%d entries)", len(ptr), len(src), len(dst), len(wt))
	}
	if len(src) != m.Stats.CutEdges {
		return fmt.Errorf("%d cut edges, manifest says %d", len(src), m.Stats.CutEdges)
	}
	counts := make([]int, s)
	for u, si := range assign {
		if si < 0 || int(si) >= s {
			return fmt.Errorf("corrupt assignment (node %d -> shard %d of %d)", u, si, s)
		}
		counts[si]++
	}
	for si, cnt := range counts {
		if cnt != m.Stats.Sizes[si] || cnt == 0 {
			return fmt.Errorf("assignment gives shard %d %d nodes, manifest says %d", si, cnt, m.Stats.Sizes[si])
		}
	}
	sx.home, sx.homeBack = assign, newPartitionBacking(f)
	// Local ids by the ascending-global-id rule the writer used.
	sx.local = sx.placeNodes(counts, nil)
	for si, p := range sx.parts {
		lo, hi := ptr[si], ptr[si+1]
		if lo > hi || hi > len(src) {
			return fmt.Errorf("corrupt cut pointers (shard %d spans [%d,%d) of %d)", si, lo, hi, len(src))
		}
		// At most one cut row, and one pointer, per cut edge.
		p.cuts = make([]cutEdge, 0, hi-lo)
		p.cutRows, p.cutRowPtr = make([]int, 0, hi-lo), append(make([]int, 0, hi-lo+1), 0)
		for i := 0; i < hi-lo; i++ {
			u, v, w := int(src[lo+i]), int(dst[lo+i]), wt[lo+i]
			if u < 0 || u >= sx.n || v < 0 || v >= sx.n || int(sx.home[u]) != si || int(sx.home[v]) == si {
				return fmt.Errorf("cut edge %d of shard %d (%d -> %d) disagrees with the assignment", i, si, u, v)
			}
			if !(w >= 0) || math.IsInf(w, 1) {
				return fmt.Errorf("cut edge %d of shard %d weighs %v", i, si, w)
			}
			if i > 0 && src[lo+i-1] > src[lo+i] {
				return fmt.Errorf("cut edges of shard %d not sorted by source", si)
			}
			p.addCut(int(sx.local[u]), cutEdge{dstShard: sx.home[v], dst: sx.local[v], w: w})
		}
	}
	return nil
}

// checkCuts cross-checks a snapshot against the loaded cut lists, which
// fillCuts derived from the graph the directory saved: fillCuts over the
// snapshot must give them back, endpoints and weights alike.
func (sx *ShardedIndex) checkCuts(g *graph.Graph) error {
	re := &ShardedIndex{n: sx.n, c: sx.c, home: sx.home, local: sx.local, parts: make([]*part, len(sx.parts))}
	for si, p := range sx.parts {
		re.parts[si] = &part{nodes: p.nodes}
	}
	re.fillCuts(g, nil)
	for si, p := range sx.parts {
		q := re.parts[si]
		if !slices.Equal(p.cuts, q.cuts) || !slices.Equal(p.cutRows, q.cutRows) || !slices.Equal(p.cutRowPtr, q.cutRowPtr) {
			return fmt.Errorf("the cut edges of shard %d are not the snapshot's", si)
		}
	}
	return nil
}

// newShardOpener builds the deferred open of one shard file: open it
// and validate it against the partition the directory was loaded with —
// the shard's owned node count and its solve dimension n (owned plus the
// sink), which fix the length of its saved communities and its size —
// and the restart probability c. The size check pins the cut-derived
// sink flag: a directory whose shard file disagrees with its cut list
// is corrupt and rejected at open time. The closure captures values,
// not the index: a deferred open shared by later epochs must not keep
// the loaded epoch, and with it every shard container that epoch holds,
// reachable.
func newShardOpener(si, owned, n int, c float64, path string) *lazyIndex {
	return &lazyIndex{open: func() (*core.Index, error) {
		ix, err := core.OpenIndexFile(path)
		if err != nil {
			return nil, fmt.Errorf("loading shard %d: %w", si, err)
		}
		if ix.N() != n {
			ix.Close()
			return nil, fmt.Errorf("shard %d (%s) has %d nodes, assignment and cuts say %d", si, path, ix.N(), n)
		}
		if k := ix.CommunityNodes(); k != 0 && k != owned {
			ix.Close()
			return nil, fmt.Errorf("shard %d (%s) keeps communities for %d nodes, it owns %d", si, path, k, owned)
		}
		// The cut weights are pre-scaled by the manifest's (1-c); a shard
		// file built with a different c would answer silently wrong.
		if ix.Restart() != c {
			ix.Close()
			return nil, fmt.Errorf("shard %d (%s) built with restart %v, manifest says %v", si, path, ix.Restart(), c)
		}
		return ix, nil
	}}
}

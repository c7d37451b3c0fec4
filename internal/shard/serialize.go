package shard

// Sharded-index persistence. A sharded index is saved as a *directory*:
// one binary core-index file per shard plus a JSON manifest tying them
// together — the manifest is the unit a deployment ships around, and
// individual shard files are fetched, opened and memory-mapped
// independently.
//
//	indexdir/
//	  manifest.json      version, c, node/shard counts, file names, stats
//	  graph.tsv          graph snapshot — what makes the index updatable
//	  assignment.bin     n × uint32 LE: node -> shard
//	  cuts.bin           per-shard outgoing cut edges (binary, see below)
//	  shard-0000.idx     core.Index.Save format (mmapio container), one per shard
//	  ...
//
// Open is the general entry point: LoadOptions select private-copy vs
// memory-mapped backing and eager vs lazy shard opens. Lazy opens read
// only the manifest, assignment and cut lists up front — O(n) bytes,
// no factor data — and defer each shard file (and the graph snapshot)
// to first use, so a 64-shard index answers a query against shard 3
// before shard 60's file is ever touched. Load is the conservative
// eager/copy wrapper. A directory of any other manifest version is
// refused with the rebuild instruction. See docs/ARCHITECTURE.md for the
// byte-level format specs (manifest, cuts.bin, the sectioned core
// layout).
//
// Local ids are not persisted: both writer and reader assign them by
// ascending global id within each shard, so the assignment array fully
// determines the mapping. The ghost-sink flag is not persisted either —
// a shard has a sink exactly when it has outgoing cut edges, so the cut
// lists determine it before any shard file is opened (the open
// validates the file agrees).

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

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
// dropped the int32 factor strips from the shard files; a version 4
// directory's shard files still carry them in a section kind this build
// no longer reads, so a lazy open of one would fail query by query.
const manifestVersion = 5

// manifest is the JSON document written to ManifestName.
type manifest struct {
	Version        int      `json:"version"`
	Restart        float64  `json:"restart"`
	Nodes          int      `json:"nodes"`
	Shards         int      `json:"shards"`
	QueryTol       float64  `json:"queryTol"`
	ShardFiles     []string `json:"shardFiles"`
	AssignmentFile string   `json:"assignmentFile"`
	CutsFile       string   `json:"cutsFile"`

	// The dynamic-update state: the graph snapshot (edge list), the build
	// inputs Apply replays (reorder method, seed), the epoch number and
	// the per-shard staleness counters.
	GraphFile      string `json:"graphFile,omitempty"`
	Reorder        string `json:"reorder,omitempty"`
	Seed           int64  `json:"seed,omitempty"`
	Epoch          int    `json:"epoch,omitempty"`
	StalenessLimit int    `json:"stalenessLimit,omitempty"`
	Staleness      []int  `json:"staleness,omitempty"`

	// The WAL position this snapshot covers. WALSeq is the last log
	// sequence number whose delta is already folded into the saved
	// factors; recovery replays only records past it. WALSegments
	// records the live segment files at save time — informational (the
	// log's own recovery rescans the directory), useful to operators and
	// tooling deciding what a snapshot depends on.
	WALSeq      uint64   `json:"walSeq,omitempty"`
	WALSegments []string `json:"walSegments,omitempty"`

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
// sharded-index manifest — the load-time dispatch the CLIs use to decide
// between core.LoadIndex and LoadShardedIndex.
func IsShardedIndexDir(path string) bool {
	fi, err := os.Stat(path)
	if err != nil || !fi.IsDir() {
		return false
	}
	_, err = os.Stat(filepath.Join(path, ManifestName))
	return err == nil
}

// Save writes the sharded index into dir, creating it if needed. Shard
// files are written in the sectioned core layout, so the directory can
// be re-opened with memory mapping (Open with an mmap mode) — including
// by an index that was itself lazily mapped: saving forces any
// still-deferred shard open, copies nothing that was not already
// resident, and the successor process simply remaps the new files.
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
	m.AssignmentFile = "assignment.bin"
	m.CutsFile = "cuts.bin"
	m.Reorder = sx.method.String()
	m.Seed = sx.seed
	m.Epoch = sx.epoch
	m.StalenessLimit = sx.stalenessLimit
	m.Staleness = sx.staleness
	m.WALSeq = sx.walSeq
	m.WALSegments = sx.walSegments
	if err := sx.ensureGraph(); err != nil { // a deferred snapshot must materialise to be re-saved
		return fmt.Errorf("shard: loading graph snapshot: %w", err)
	}
	m.GraphFile = "graph.tsv"
	if err := writeFile(filepath.Join(dir, m.GraphFile), sx.g.WriteEdgeList); err != nil {
		return fmt.Errorf("shard: saving graph snapshot: %w", err)
	}
	m.Stats.Sizes = sx.stats.Sizes
	m.Stats.CutEdges = sx.stats.CutEdges
	m.Stats.CutWeightFrac = sx.stats.CutWeightFrac
	m.Stats.NNZInverse = sx.stats.NNZInverse
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
	if err := writeFile(filepath.Join(dir, m.AssignmentFile), sx.writeAssignment); err != nil {
		return fmt.Errorf("shard: saving assignment: %w", err)
	}
	if err := writeFile(filepath.Join(dir, m.CutsFile), sx.writeCuts); err != nil {
		return fmt.Errorf("shard: saving cut edges: %w", err)
	}
	blob, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return fmt.Errorf("shard: encoding manifest: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestName), append(blob, '\n'), 0o644); err != nil {
		return fmt.Errorf("shard: writing manifest: %w", err)
	}
	return nil
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (sx *ShardedIndex) writeAssignment(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var buf [4]byte
	for _, si := range sx.home {
		binary.LittleEndian.PutUint32(buf[:], uint32(si))
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func (sx *ShardedIndex) writeCuts(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var b8 [8]byte
	writeU64 := func(v uint64) error {
		binary.LittleEndian.PutUint64(b8[:], v)
		_, err := bw.Write(b8[:])
		return err
	}
	writeU32 := func(v uint32) error {
		binary.LittleEndian.PutUint32(b8[:4], v)
		_, err := bw.Write(b8[:4])
		return err
	}
	for _, p := range sx.parts {
		if err := writeU64(uint64(len(p.cuts))); err != nil {
			return err
		}
		for _, e := range p.cuts {
			if err := writeU32(uint32(e.src)); err != nil {
				return err
			}
			if err := writeU32(uint32(e.dstShard)); err != nil {
				return err
			}
			if err := writeU32(uint32(e.dst)); err != nil {
				return err
			}
			if err := writeU64(math.Float64bits(e.w)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// LoadOptions configures Open.
type LoadOptions struct {
	// Mode selects how shard files are backed: mmapio.ModeMmap and
	// ModeAuto map shard files read-only and wrap their arrays in place;
	// mmapio.ModeCopy materialises private copies with every checksum
	// verified (sealed off the Go heap where the platform maps memory).
	// The zero value is ModeAuto (map where the platform supports it);
	// Load passes ModeCopy explicitly to keep its historical
	// fully-private contract.
	Mode mmapio.Mode
	// Lazy defers each shard file's open to the first query that solves
	// the shard, and the graph snapshot's parse to the first query:
	// Open returns after reading only the manifest, assignment and cuts,
	// so a 64-shard index serves a query against shard 3 before shard
	// 60's file is ever touched. Without Lazy every shard opens (and
	// validates) before Open returns.
	Lazy bool
}

// Load reads a sharded index previously written by Save, fully
// materialised in private memory — the conservative default. Use Open
// to memory-map and/or lazily open the shard files.
func Load(dir string) (*ShardedIndex, error) {
	return Open(dir, LoadOptions{Mode: mmapio.ModeCopy})
}

// Open reads a sharded index with explicit backing and laziness
// choices. See LoadOptions; shard containers held off the Go heap are
// released when no epoch using them is reachable, or at once by Close.
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
	if m.Nodes <= 0 || m.Nodes > 1<<40 || m.Shards <= 0 || m.Shards > m.Nodes ||
		len(m.ShardFiles) != m.Shards || len(m.Stats.NNZShards) != m.Shards {
		return nil, fmt.Errorf("shard: corrupt manifest (nodes=%d shards=%d files=%d nnz counts=%d)",
			m.Nodes, m.Shards, len(m.ShardFiles), len(m.Stats.NNZShards))
	}
	if m.Restart <= 0 || m.Restart >= 1 {
		return nil, fmt.Errorf("shard: corrupt manifest (restart %v)", m.Restart)
	}
	method, err := reorder.Parse(m.Reorder)
	if err != nil {
		return nil, fmt.Errorf("shard: corrupt manifest: %w", err)
	}
	// File references must be plain names inside the directory.
	names := append([]string{m.AssignmentFile, m.CutsFile, m.GraphFile}, m.ShardFiles...)
	for _, name := range names {
		if name == "" || name != filepath.Base(name) {
			return nil, fmt.Errorf("shard: corrupt manifest (file reference %q)", name)
		}
	}
	// Bound the node count by the assignment file's actual size before
	// allocating anything node-sized: a corrupt manifest cannot make the
	// loader commit memory the directory does not carry.
	if fi, err := os.Stat(filepath.Join(dir, m.AssignmentFile)); err != nil {
		return nil, fmt.Errorf("shard: checking assignment: %w", err)
	} else if fi.Size() != int64(m.Nodes)*4 {
		return nil, fmt.Errorf("shard: assignment file has %d bytes, want %d for %d nodes", fi.Size(), int64(m.Nodes)*4, m.Nodes)
	}
	sx := &ShardedIndex{
		n:              m.Nodes,
		c:              m.Restart,
		qtol:           m.QueryTol,
		local:          make([]int, m.Nodes),
		parts:          make([]*part, m.Shards),
		method:         method,
		seed:           m.Seed,
		epoch:          m.Epoch,
		stalenessLimit: m.StalenessLimit,
		walSeq:         m.WALSeq,
		walSegments:    m.WALSegments,
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
	graphPath := filepath.Join(dir, m.GraphFile)
	load := func() (*graph.Graph, error) {
		f, err := os.Open(graphPath)
		if err != nil {
			return nil, fmt.Errorf("shard: opening graph snapshot: %w", err)
		}
		g, err := graph.ParseEdgeList(f, m.Nodes)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("shard: reading graph snapshot: %w", err)
		}
		if g.N() != m.Nodes {
			return nil, fmt.Errorf("shard: graph snapshot has %d nodes, manifest says %d", g.N(), m.Nodes)
		}
		return g, nil
	}
	if opt.Lazy {
		// Parsing the O(m) edge list waits for the first query.
		sx.gLoad = load
	} else {
		g, err := load()
		if err != nil {
			return nil, err
		}
		sx.setGraph(g)
	}
	if sx.home, err = readAssignment(filepath.Join(dir, m.AssignmentFile), m.Nodes, m.Shards); err != nil {
		return nil, err
	}
	for i := range sx.parts {
		sx.parts[i] = &part{}
	}
	// Rebuild local ids by the ascending-global-id rule the writer used.
	for u := 0; u < sx.n; u++ {
		p := sx.parts[sx.home[u]]
		sx.local[u] = len(p.nodes)
		p.nodes = append(p.nodes, u)
	}
	for si, p := range sx.parts {
		if len(p.nodes) == 0 {
			return nil, fmt.Errorf("shard: corrupt manifest (shard %d owns no nodes)", si)
		}
	}
	// Cut lists load eagerly (they are small and every shard's residual
	// bookkeeping needs them); they also determine each shard's ghost
	// sink before its file is opened — a shard carries a sink exactly
	// when it has outgoing cut edges, because Build adds one for any
	// positive leaked weight and edge weights are strictly positive.
	if err := sx.readCuts(filepath.Join(dir, m.CutsFile)); err != nil {
		return nil, err
	}
	for si, name := range m.ShardFiles {
		p := sx.parts[si]
		p.sink = len(p.cuts) > 0
		p.nnzHint = m.Stats.NNZShards[si]
		p.lazy = newShardOpener(si, sx.partLen(si), sx.c, filepath.Join(dir, name), opt.Mode)
	}
	sx.mapCapable = opt.Mode != mmapio.ModeCopy && mmapio.MmapSupported() && mmapio.CanZeroCopy()
	if !opt.Lazy {
		if err := sx.OpenAll(); err != nil {
			sx.Close() // release mappings of the shards that did open
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

// newShardOpener builds the deferred open of one shard file: open it in
// the requested mmapio mode and validate it against the manifest the
// directory was loaded with — the shard's solve dimension n and the
// restart probability c.
// The node-count check pins the cut-derived sink flag: a directory
// whose shard file disagrees with its cut list is corrupt and rejected
// at open time. The closure captures values, not the index: a deferred
// open shared by later epochs must not keep the loaded epoch, and with
// it every shard container that epoch holds, reachable.
func newShardOpener(si, n int, c float64, path string, mode mmapio.Mode) *lazyIndex {
	return &lazyIndex{open: func() (*core.Index, error) {
		ix, err := core.OpenIndexFile(path, mode)
		if err != nil {
			return nil, fmt.Errorf("loading shard %d: %w", si, err)
		}
		if ix.N() != n {
			ix.Close()
			return nil, fmt.Errorf("shard %d has %d nodes, assignment and cuts say %d", si, ix.N(), n)
		}
		// The cut weights are pre-scaled by the manifest's (1-c); a shard
		// file built with a different c would answer silently wrong.
		if ix.Restart() != c {
			ix.Close()
			return nil, fmt.Errorf("shard %d built with restart %v, manifest says %v", si, ix.Restart(), c)
		}
		return ix, nil
	}}
}

func readAssignment(path string, n, shards int) ([]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("shard: opening assignment: %w", err)
	}
	defer f.Close()
	br := bufio.NewReader(f)
	out := make([]int, n)
	var buf [4]byte
	for u := 0; u < n; u++ {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return nil, fmt.Errorf("shard: reading assignment: %w", err)
		}
		si := int(binary.LittleEndian.Uint32(buf[:]))
		if si < 0 || si >= shards {
			return nil, fmt.Errorf("shard: corrupt assignment (node %d -> shard %d of %d)", u, si, shards)
		}
		out[u] = si
	}
	return out, nil
}

func (sx *ShardedIndex) readCuts(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("shard: opening cut edges: %w", err)
	}
	defer f.Close()
	br := bufio.NewReader(f)
	var b8 [8]byte
	readU64 := func() (uint64, error) {
		if _, err := io.ReadFull(br, b8[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(b8[:]), nil
	}
	readU32 := func() (uint32, error) {
		if _, err := io.ReadFull(br, b8[:4]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(b8[:4]), nil
	}
	for si, p := range sx.parts {
		count, err := readU64()
		if err != nil {
			return fmt.Errorf("shard: reading cut edges of shard %d: %w", si, err)
		}
		if count > uint64(sx.n)*uint64(sx.n) {
			return fmt.Errorf("shard: corrupt cut edges (shard %d claims %d)", si, count)
		}
		p.cuts = make([]cutEdge, count)
		for i := range p.cuts {
			src, err := readU32()
			if err != nil {
				return err
			}
			dstShard, err := readU32()
			if err != nil {
				return err
			}
			dst, err := readU32()
			if err != nil {
				return err
			}
			wBits, err := readU64()
			if err != nil {
				return err
			}
			e := cutEdge{src: int(src), dstShard: int(dstShard), dst: int(dst), w: math.Float64frombits(wBits)}
			if e.src < 0 || e.src >= len(p.nodes) || e.dstShard < 0 || e.dstShard >= len(sx.parts) ||
				e.dst < 0 || e.dst >= len(sx.parts[e.dstShard].nodes) || e.w < 0 || math.IsNaN(e.w) {
				return fmt.Errorf("shard: corrupt cut edge %d of shard %d", i, si)
			}
			if i > 0 && p.cuts[i-1].src > e.src {
				return fmt.Errorf("shard: corrupt cut edges (shard %d not sorted by source)", si)
			}
			p.cuts[i] = e
		}
	}
	for _, p := range sx.parts {
		p.indexCuts()
	}
	return nil
}

// Package blin implements the approximate RWR baselines of Tong,
// Faloutsos & Pan (ICDM 2006): NB_LIN and B_LIN. Both replace (part of)
// the normalised adjacency with a low-rank SVD and apply the
// Sherman–Morrison–Woodbury identity so queries cost dense
// matrix-times-vector work instead of an iterative solve.
//
// NB_LIN: A ≈ U diag(S) Vt, so
//
//	(I - (1-c) U diag(S) Vt)^{-1} = I + U Λ Vt,
//	Λ = ( diag(1/((1-c) S)) - Vt U )^{-1}
//
// B_LIN first splits A = A1 + A2 where A1 keeps within-partition edges
// (partitions from the Louvain method, standing in for the paper's METIS)
// and A2 the cross-partition edges, inverts M = I - (1-c)A1 exactly block
// by block, low-ranks only A2, and applies Woodbury around M^{-1}.
//
// These are approximation algorithms: their top-k answers can miss true
// answers, which is exactly the trade-off the paper's Figures 3 and 4
// study.
package blin

import (
	"fmt"

	"kdash/internal/graph"
	"kdash/internal/linalg"
	"kdash/internal/louvain"
	"kdash/internal/rwr"
	"kdash/internal/sparse"
	"kdash/internal/topk"
)

// Options configures either baseline.
type Options struct {
	// Rank is the target rank of the low-rank approximation (the paper
	// sweeps 100..1000 on the full-size datasets).
	Rank int
	// Restart is the restart probability c (0 selects 0.95).
	Restart float64
	// PowerIters controls randomised-SVD accuracy (0 selects 2).
	PowerIters int
	// Seed makes the SVD deterministic.
	Seed int64
	// MaxBlock caps B_LIN partition sizes; larger Louvain communities are
	// chopped, moving the chopped edges into the low-rank part. 0 selects
	// 200.
	MaxBlock int
}

func (o Options) withDefaults() Options {
	if o.Restart == 0 {
		o.Restart = rwr.DefaultRestart
	}
	if o.PowerIters == 0 {
		o.PowerIters = 2
	}
	if o.MaxBlock == 0 {
		o.MaxBlock = 200
	}
	return o
}

// NBLin is a prebuilt NB_LIN index.
type NBLin struct {
	n    int
	c    float64
	rank int
	u    *linalg.Dense // n x r
	vt   *linalg.Dense // r x n
	lam  *linalg.Dense // r x r
}

// NewNBLin precomputes the NB_LIN structure for the graph.
func NewNBLin(g *graph.Graph, opt Options) (*NBLin, error) {
	opt = opt.withDefaults()
	if g.N() == 0 {
		return nil, fmt.Errorf("blin: empty graph")
	}
	if opt.Rank <= 0 {
		return nil, fmt.Errorf("blin: rank must be positive, got %d", opt.Rank)
	}
	if opt.Restart <= 0 || opt.Restart >= 1 {
		return nil, fmt.Errorf("blin: restart probability %v outside (0,1)", opt.Restart)
	}
	a := g.ColumnNormalized()
	svd := linalg.TruncatedSVD(a, opt.Rank, opt.PowerIters, opt.Seed)
	lam, err := woodburyLambda(svd, opt.Restart, linalg.Mul(svd.Vt, svd.U))
	if err != nil {
		return nil, err
	}
	return &NBLin{n: g.N(), c: opt.Restart, rank: len(svd.S), u: svd.U, vt: svd.Vt, lam: lam}, nil
}

// woodburyLambda builds Λ = (diag(1/((1-c)S)) - VtU)^{-1}, guarding tiny
// singular values (their components are simply dropped, matching the
// behaviour of a smaller effective rank).
func woodburyLambda(svd *linalg.SVD, c float64, vtu *linalg.Dense) (*linalg.Dense, error) {
	r := len(svd.S)
	m := linalg.NewDense(r, r)
	for i := 0; i < r; i++ {
		for j := 0; j < r; j++ {
			m.Set(i, j, -vtu.At(i, j))
		}
		s := svd.S[i]
		if s < 1e-12 {
			// Dead direction: make it inert (huge diagonal => ~0 inverse
			// contribution).
			m.Set(i, i, 1e18)
			continue
		}
		m.Set(i, i, m.At(i, i)+1/((1-c)*s))
	}
	lam, err := linalg.Inverse(m)
	if err != nil {
		return nil, fmt.Errorf("blin: Woodbury core matrix singular: %w", err)
	}
	return lam, nil
}

// ProximityVector returns the approximate proximity vector for query q:
// p ≈ c (e_q + U Λ Vt e_q).
func (b *NBLin) ProximityVector(q int) ([]float64, error) {
	if q < 0 || q >= b.n {
		return nil, fmt.Errorf("blin: query node %d outside [0,%d)", q, b.n)
	}
	// Vt e_q is column q of Vt.
	v := make([]float64, b.rank)
	for i := 0; i < b.rank; i++ {
		v[i] = b.vt.At(i, q)
	}
	y := b.lam.MulVec(v)
	p := b.u.MulVec(y)
	for i := range p {
		p[i] *= b.c
	}
	p[q] += b.c
	return p, nil
}

// TopK returns the approximate top-k answer. NB_LIN scores every node, so
// K does not affect its cost — the behaviour Figure 2 highlights.
func (b *NBLin) TopK(q, k int) ([]topk.Result, error) {
	p, err := b.ProximityVector(q)
	if err != nil {
		return nil, err
	}
	return topk.FromVector(p, k), nil
}

// BLin is a prebuilt B_LIN index.
type BLin struct {
	n    int
	c    float64
	rank int
	// Block-diagonal M^{-1}: for each partition, the member nodes and the
	// dense inverse of its block of M = I - (1-c)A1.
	blocks  []block
	blockOf []int         // node -> block index
	posIn   []int         // node -> position within its block
	u2      *linalg.Dense // M^{-1} U  (n x r)
	vt2     *linalg.Dense // Vt M^{-1} (r x n)
	lam     *linalg.Dense // r x r
}

type block struct {
	nodes []int
	inv   *linalg.Dense
}

// NewBLin precomputes the B_LIN structure for the graph.
func NewBLin(g *graph.Graph, opt Options) (*BLin, error) {
	opt = opt.withDefaults()
	if g.N() == 0 {
		return nil, fmt.Errorf("blin: empty graph")
	}
	if opt.Rank <= 0 {
		return nil, fmt.Errorf("blin: rank must be positive, got %d", opt.Rank)
	}
	if opt.Restart <= 0 || opt.Restart >= 1 {
		return nil, fmt.Errorf("blin: restart probability %v outside (0,1)", opt.Restart)
	}
	n := g.N()
	c := opt.Restart
	// Partition with Louvain, chopping oversized communities.
	com := louvain.Partition(g, opt.Seed).Community
	blockOf, groups := chop(com, n, opt.MaxBlock)

	a := g.ColumnNormalized()
	// Split A into within-partition (A1) and cross-partition (A2) parts.
	a1 := sparse.NewCOO(n, n)
	a2 := sparse.NewCOO(n, n)
	for col := 0; col < n; col++ {
		for i := a.ColPtr[col]; i < a.ColPtr[col+1]; i++ {
			r := int(a.RowIdx[i])
			if blockOf[r] == blockOf[col] {
				a1.Add(r, col, a.Val[i])
			} else {
				a2.Add(r, col, a.Val[i])
			}
		}
	}
	// Dense per-block inversion of M = I - (1-c)A1.
	a1c := a1.ToCSC()
	b := &BLin{n: n, c: c, blockOf: blockOf, posIn: make([]int, n)}
	for _, nodes := range groups {
		bn := len(nodes)
		idxOf := make(map[int]int, bn)
		for i, u := range nodes {
			idxOf[u] = i
			b.posIn[u] = i
		}
		m := linalg.NewDense(bn, bn)
		for i := 0; i < bn; i++ {
			m.Set(i, i, 1)
		}
		for li, u := range nodes {
			// Column u of A1 restricted to the block.
			for t := a1c.ColPtr[u]; t < a1c.ColPtr[u+1]; t++ {
				r := int(a1c.RowIdx[t])
				m.Set(idxOf[r], li, m.At(idxOf[r], li)-(1-c)*a1c.Val[t])
			}
		}
		inv, err := linalg.Inverse(m)
		if err != nil {
			return nil, fmt.Errorf("blin: block of size %d singular: %w", bn, err)
		}
		b.blocks = append(b.blocks, block{nodes: nodes, inv: inv})
	}
	// Low-rank the cross part and precompute the Woodbury pieces.
	a2c := a2.ToCSC()
	rank := opt.Rank
	svd := linalg.TruncatedSVD(a2c, rank, opt.PowerIters, opt.Seed+1)
	b.rank = len(svd.S)
	// M^{-1} U: apply block inverse to each column of U.
	b.u2 = b.applyMinvDense(svd.U)
	// Vt M^{-1} = (M^{-T} V)^T; since M^{-1} is block diagonal but not
	// symmetric, compute row-wise: (Vt M^{-1})[i,:] = M^{-T} applied to
	// Vt[i,:]. Equivalently multiply each row vector by M^{-1} from the
	// right.
	b.vt2 = b.applyMinvRight(svd.Vt)
	vtu := linalg.Mul(b.vt2, svd.U) // Vt M^{-1} U
	lam, err := woodburyLambda(svd, c, vtu)
	if err != nil {
		return nil, err
	}
	b.lam = lam
	return b, nil
}

// chop splits communities larger than maxBlock into consecutive chunks
// and returns the block id per node plus the member list per block.
func chop(com []int, n, maxBlock int) ([]int, [][]int) {
	byCom := map[int][]int{}
	for u := 0; u < n; u++ {
		byCom[com[u]] = append(byCom[com[u]], u)
	}
	// Deterministic iteration: communities sorted by smallest member.
	order := make([]int, 0, len(byCom))
	seen := map[int]bool{}
	for u := 0; u < n; u++ {
		if !seen[com[u]] {
			seen[com[u]] = true
			order = append(order, com[u])
		}
	}
	blockOf := make([]int, n)
	var groups [][]int
	for _, cid := range order {
		nodes := byCom[cid]
		for off := 0; off < len(nodes); off += maxBlock {
			end := off + maxBlock
			if end > len(nodes) {
				end = len(nodes)
			}
			chunk := nodes[off:end]
			for _, u := range chunk {
				blockOf[u] = len(groups)
			}
			groups = append(groups, chunk)
		}
	}
	return blockOf, groups
}

// applyMinvVec computes y = M^{-1} x using the block inverses.
func (b *BLin) applyMinvVec(x []float64) []float64 {
	y := make([]float64, b.n)
	for _, blk := range b.blocks {
		bn := len(blk.nodes)
		sub := make([]float64, bn)
		for i, u := range blk.nodes {
			sub[i] = x[u]
		}
		res := blk.inv.MulVec(sub)
		for i, u := range blk.nodes {
			y[u] = res[i]
		}
	}
	return y
}

// applyMinvDense computes M^{-1} D column by column (D is n x k).
func (b *BLin) applyMinvDense(d *linalg.Dense) *linalg.Dense {
	out := linalg.NewDense(d.Rows, d.Cols)
	col := make([]float64, d.Rows)
	for j := 0; j < d.Cols; j++ {
		for i := 0; i < d.Rows; i++ {
			col[i] = d.At(i, j)
		}
		res := b.applyMinvVec(col)
		for i := 0; i < d.Rows; i++ {
			out.Set(i, j, res[i])
		}
	}
	return out
}

// applyMinvRight computes D M^{-1} row by row (D is k x n): each row r
// satisfies (D M^{-1})[r, :] = (M^{-T} D[r, :]^T)^T, done per block with
// the transposed block inverse.
func (b *BLin) applyMinvRight(d *linalg.Dense) *linalg.Dense {
	out := linalg.NewDense(d.Rows, d.Cols)
	for r := 0; r < d.Rows; r++ {
		row := d.Row(r)
		for _, blk := range b.blocks {
			bn := len(blk.nodes)
			for j := 0; j < bn; j++ {
				s := 0.0
				for i := 0; i < bn; i++ {
					s += row[blk.nodes[i]] * blk.inv.At(i, j)
				}
				out.Set(r, blk.nodes[j], s)
			}
		}
	}
	return out
}

// ProximityVector returns the approximate proximity vector for query q:
// p ≈ c ( M^{-1} e_q + (M^{-1} U) Λ (Vt M^{-1}) e_q ).
func (b *BLin) ProximityVector(q int) ([]float64, error) {
	if q < 0 || q >= b.n {
		return nil, fmt.Errorf("blin: query node %d outside [0,%d)", q, b.n)
	}
	// M^{-1} e_q: column of the block inverse containing q.
	p := make([]float64, b.n)
	blk := b.blocks[b.blockOf[q]]
	for i, u := range blk.nodes {
		p[u] = blk.inv.At(i, b.posIn[q])
	}
	// (Vt M^{-1}) e_q is column q of vt2.
	v := make([]float64, b.rank)
	for i := 0; i < b.rank; i++ {
		v[i] = b.vt2.At(i, q)
	}
	y := b.lam.MulVec(v)
	corr := b.u2.MulVec(y)
	for i := range p {
		p[i] = b.c * (p[i] + corr[i])
	}
	return p, nil
}

// TopK returns the approximate top-k answer.
func (b *BLin) TopK(q, k int) ([]topk.Result, error) {
	p, err := b.ProximityVector(q)
	if err != nil {
		return nil, err
	}
	return topk.FromVector(p, k), nil
}

package jsr

import (
	"context"
	"math"
	"runtime/debug"

	"adaptivertc/internal/mat"
)

// This file holds the zero-allocation expansion engine behind
// GripenbergCtx. The expand loop is the hot path of every certification
// job: each node costs exactly one small matrix multiply (the child is
// Ω(h)·parent, with the parent product cached on the frontier entry),
// one spectral radius, and one norm — all through preallocated
// per-worker scratch, so a warm level performs zero heap allocations
// per node. Results are bit-identical to the straightforward allocating
// loop because every numeric kernel (mat.MulInto, mat.TwoNormScratch,
// mat.SpectralRadiusScratch) shares its computational core with the
// allocating variant. The spectral radius is skipped (recorded as 0)
// when mat.SpectralRadiusBound shows the child cannot raise the
// level-start lower bound: the merge folds ρ into Lower with a strict
// >, so such a child never changes Lower, the witness, or the frontier.

// serialCutoverNodes is the frontier size at or below which a level is
// expanded on the calling goroutine regardless of the Workers option:
// for tiny levels the goroutine spawn + merge overhead exceeds the work
// itself (the committed BENCH_jsr.json baseline showed w2/w8 ~10%
// *slower* than w1 before this cutover). Worker invariance makes the
// cutover observationally silent: results are bit-identical on both
// sides of the threshold. A package variable, not a constant, so tests
// can force either side.
var serialCutoverNodes = 16

// matPool is a grow-only pool of n×n product buffers. ensure extends it
// to the requested size; buffers are never returned, so a warm pool
// serves every later level allocation-free.
type matPool struct {
	n    int
	bufs []*mat.Dense
}

func (p *matPool) ensure(count int) {
	for len(p.bufs) < count {
		p.bufs = append(p.bufs, mat.New(p.n, p.n))
	}
}

// gripSearch owns the reusable state of one Gripenberg (or constrained)
// search: two product-buffer pools used in ping-pong by level parity,
// one scratch workspace per worker slot, and the flat children array.
//
// The pools alternate by depth%2: children of level d are written into
// pools[d%2], while their parents — the frontier, written one level
// earlier — live in pools[(d-1)%2] (or outside the pools entirely, for
// seed and resume products). A buffer is only reused two levels later,
// by which time every node of its level has either been merged into the
// next frontier (its children now hold the data) or pruned, so no live
// product is ever overwritten.
type gripSearch struct {
	set      []*mat.Dense
	k, n     int
	pools    [2]matPool
	scratch  []*mat.Scratch
	children []gripChild

	// Per-level state read by fn. Written by expandLevel before the
	// parallel call; the worker WaitGroup orders these writes before any
	// worker read.
	frontier []gripNode
	exp      float64
	lower    float64
	pool     *matPool

	// fn is the per-range worker body, built once at construction so
	// expanding a level does not allocate a fresh closure.
	fn func(ctx context.Context, slot, lo, hi int) error
}

func newGripSearch(set []*mat.Dense, workers int) *gripSearch {
	n := set[0].Rows()
	g := &gripSearch{
		set:     set,
		k:       len(set),
		n:       n,
		pools:   [2]matPool{{n: n}, {n: n}},
		scratch: make([]*mat.Scratch, workers),
	}
	g.fn = func(ctx context.Context, slot, lo, hi int) error {
		ms := g.scratchFor(slot)
		for fi := lo; fi < hi; fi++ {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			if gerr := g.expandNodeGuarded(fi, ms); gerr != nil {
				return gerr
			}
		}
		return nil
	}
	return g
}

// scratchFor lazily builds the slot's workspace. Each slot is owned by
// exactly one goroutine per level, and the level barrier
// (sync.WaitGroup in parallelSlots) orders one level's writes before
// the next level's reads, so the lazy initialization is race-free.
func (g *gripSearch) scratchFor(slot int) *mat.Scratch {
	if g.scratch[slot] == nil {
		g.scratch[slot] = mat.NewScratch(g.n)
	}
	return g.scratch[slot]
}

// expandLevel expands frontier[0:expand] into g.children (length
// expand·k), sharded across the worker pool with the serial cutover
// applied. The returned slice aliases g.children and is valid until the
// next expandLevel call; child products live in the depth-parity pool.
// lower is the search's lower bound at the start of the level: a child
// whose spectral-radius bound rate cannot exceed it gets rho = 0 without
// an eigenvalue solve. Pass -Inf to compute every rho.
func (g *gripSearch) expandLevel(ctx context.Context, frontier []gripNode, expand, depth, workers int, lower float64) ([]gripChild, error) {
	need := expand * g.k
	if cap(g.children) < need {
		g.children = make([]gripChild, need)
	}
	g.children = g.children[:need]
	pool := &g.pools[depth%2]
	pool.ensure(need)
	g.frontier = frontier
	g.exp = 1 / float64(depth)
	g.lower = lower
	g.pool = pool
	if expand <= serialCutoverNodes {
		workers = 1
	}
	err := parallelSlots(ctx, expand, workers, g.fn)
	return g.children, err
}

// expandNodeGuarded computes the k children of frontier node fi, in
// matrix-index order, converting a panic into a *PanicError carrying
// the node's word. The recover is inlined (rather than routed through
// expandGuard) so the guard costs no closure allocation per node.
func (g *gripSearch) expandNodeGuarded(fi int, ms *mat.Scratch) (err error) {
	nd := g.frontier[fi]
	defer func() {
		if r := recover(); r != nil {
			if pe, ok := r.(*PanicError); ok {
				err = pe
				return
			}
			err = &PanicError{Value: r, Word: append([]int(nil), nd.word...), Stack: debug.Stack()}
		}
	}()
	out := g.children[fi*g.k : (fi+1)*g.k]
	bufs := g.pool.bufs[fi*g.k : (fi+1)*g.k]
	for ai, a := range g.set {
		p := bufs[ai]
		mat.MulInto(p, a, nd.prod)
		rho := 0.0
		if math.Pow(mat.SpectralRadiusBound(p), g.exp) > g.lower {
			var rerr error
			if rho, rerr = mat.SpectralRadiusScratch(p, ms); rerr != nil {
				return rerr
			}
		}
		out[ai] = gripChild{prod: p, rho: rho, cert: math.Min(nd.cert, math.Pow(mat.TwoNormScratch(p, ms), g.exp))}
	}
	return nil
}

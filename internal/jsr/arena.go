package jsr

import (
	"context"
	"runtime/debug"

	"adaptivertc/internal/mat"
)

// This file holds the zero-allocation expansion engine behind
// GripenbergCtx and ConstrainedGripenbergCtx. The expand loop is the
// hot path of every certification job: each node costs exactly one
// small matrix multiply (the child is Ω(h)·parent, with the parent
// product cached on the frontier entry), at most one spectral radius,
// and at most one norm — all through preallocated per-worker scratch,
// so a warm level performs zero heap allocations per node. Results are bit-identical to the straightforward
// allocating loop because every numeric kernel (mat.MulInto,
// mat.TwoNormScratch, mat.SpectralRadiusScratch) shares its
// computational core with the allocating variant.
//
// Two gates skip the O(n³) kernels on children that provably cannot
// matter, both read from one O(n²) sweep (mat.NormBoundsScratch). The
// spectral radius is skipped (recorded as 0) when the norm or Gelfand
// bound shows the child cannot raise the level-start lower bound: the
// merge folds ρ into Lower with a strict >, so such a child never
// changes Lower or the witness. The norm is skipped (the prune
// threshold is recorded as the certificate) when the bound already puts
// the certificate at or below the level-start prune threshold: the
// merge prunes against a threshold at least as high, and a pruned
// child's certificate is read nowhere. Both thresholds become a
// rateGate once per level, so a bound is compared with lower^depth
// rather than raised to the 1/depth power, with the same decision
// (DESIGN §11).

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

// gripSearch owns the reusable state of one Gripenberg search on a
// switching graph: two product-buffer pools used in ping-pong by level
// parity, one scratch workspace per worker slot, and the flat children
// array with its per-node slot offsets.
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
	g        *Graph
	n        int
	pools    [2]matPool
	scratch  []*mat.Scratch
	children []gripChild
	// offs lays out the children by prefix sums of the frontier's
	// out-degrees: node fi owns slots [offs[fi], offs[fi+1]). On the
	// complete graph over k matrices that is the fi·k layout.
	offs []int

	// Per-level state read by fn. Written by expandLevel before the
	// parallel call; the worker WaitGroup orders these writes before any
	// worker read.
	frontier []gripNode
	lower    rateGate
	prune    rateGate
	pool     *matPool

	// fn is the per-range worker body, built once at construction so
	// expanding a level does not allocate a fresh closure.
	fn func(ctx context.Context, slot, lo, hi int) error
}

func newGripSearch(set []*mat.Dense, g *Graph, workers int) *gripSearch {
	n := set[0].Rows()
	s := &gripSearch{
		set:     set,
		g:       g,
		n:       n,
		pools:   [2]matPool{{n: n}, {n: n}},
		scratch: make([]*mat.Scratch, workers),
	}
	s.fn = func(ctx context.Context, slot, lo, hi int) error {
		ms := s.scratchFor(slot)
		for fi := lo; fi < hi; fi++ {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			if gerr := s.expandNodeGuarded(fi, ms); gerr != nil {
				return gerr
			}
		}
		return nil
	}
	return s
}

// scratchFor lazily builds the slot's workspace. Each slot is owned by
// exactly one goroutine per level, and the level barrier
// (sync.WaitGroup in parallelSlots) orders one level's writes before
// the next level's reads, so the lazy initialization is race-free.
func (s *gripSearch) scratchFor(slot int) *mat.Scratch {
	if s.scratch[slot] == nil {
		s.scratch[slot] = mat.NewScratch(s.n)
	}
	return s.scratch[slot]
}

// expandLevel expands frontier[0:expand] into s.children, one slot per
// graph edge out of each node (s.offs holds the layout), sharded across
// the worker pool with the serial cutover applied. The returned slice
// aliases s.children and is valid until the next expandLevel call;
// child products live in the depth-parity pool. lower is the search's
// lower bound at the start of the level: a child whose spectral-radius
// bound rate cannot exceed it gets rho = 0 without an eigenvalue solve.
// prune is the level-start prune threshold lower + δ: a child whose
// certificate bound cannot exceed it carries prune as its certificate,
// without a norm computation. Pass -Inf for both to compute every rho
// and every norm.
func (s *gripSearch) expandLevel(ctx context.Context, frontier []gripNode, expand, depth, workers int, lower, prune float64) ([]gripChild, error) {
	if cap(s.offs) < expand+1 {
		s.offs = make([]int, expand+1)
	}
	s.offs = s.offs[:expand+1]
	for fi, nd := range frontier[:expand] {
		s.offs[fi+1] = s.offs[fi] + len(s.g.Next[nd.at])
	}
	need := s.offs[expand]
	if cap(s.children) < need {
		s.children = make([]gripChild, need)
	}
	s.children = s.children[:need]
	pool := &s.pools[depth%2]
	pool.ensure(need)
	s.frontier = frontier
	s.lower = newRateGate(lower, depth)
	s.prune = newRateGate(prune, depth)
	s.pool = pool
	if expand <= serialCutoverNodes {
		workers = 1
	}
	err := parallelSlots(ctx, expand, workers, s.fn)
	return s.children, err
}

// expandNodeGuarded computes the children of frontier node fi, in
// successor order, converting a panic into a *PanicError carrying the
// node's word. The recover is inlined (rather than routed through
// expandGuard) so the guard costs no closure allocation per node. A
// child whose walk cannot close back to its start records rho = 0, like
// a gated skip: only closed walks repeat forever, so only they bound the
// JSR from below, and the merge's strict > never lets a 0 raise Lower.
func (s *gripSearch) expandNodeGuarded(fi int, ms *mat.Scratch) (err error) {
	nd := s.frontier[fi]
	defer func() {
		if r := recover(); r != nil {
			if pe, ok := r.(*PanicError); ok {
				err = pe
				return
			}
			err = &PanicError{Value: r, Word: append([]int(nil), nd.word...), Stack: debug.Stack()}
		}
	}()
	lo, hi := s.offs[fi], s.offs[fi+1]
	out, bufs := s.children[lo:hi], s.pool.bufs[lo:hi]
	for j, nxt := range s.g.Next[nd.at] {
		p := bufs[j]
		mat.MulInto(p, s.set[s.g.Nodes[nxt]], nd.prod)
		nb := mat.NormBoundsScratch(p, ms)
		rho := 0.0
		if closes(s.g, nxt, nd.start) {
			var rerr error
			if rho, rerr = gatedRadius(p, nb, ms, s.lower); rerr != nil {
				return rerr
			}
		}
		out[j] = gripChild{prod: p, rho: rho, cert: gatedCert(p, nb, ms, nd.cert, s.prune), at: nxt}
	}
	return nil
}

package jsr

import (
	"context"
	"math"
	"runtime/debug"

	"adaptivertc/internal/mat"
)

// This file holds the zero-allocation expansion engine behind
// every Gripenberg search (gripenberg in jsr.go). The expand loop is the
// hot path of every certification job: each node costs at most one
// small matrix multiply (the child is Ω(h)·parent, with the parent
// product cached on the frontier entry), at most one spectral radius,
// and at most one norm — all through preallocated per-worker scratch,
// so a warm level performs zero heap allocations per node. Results are
// bit-identical to the straightforward allocating loop because every
// numeric kernel (mat.MulInto, mat.TwoNormScratch,
// mat.SpectralRadiusScratch) shares its computational core with the
// allocating variant.
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
//
// A third gate runs before the product: mat.ProductFroBound bounds
// both of the sweep's bounds from the Gram matrices of the mode and of
// the parent, so a child that both gates would skip on its sweep is
// recorded without its multiply, its sweep or a product buffer.

// serialCutoverNodes is the frontier size at or below which a level is
// expanded on the calling goroutine regardless of the Workers option:
// for tiny levels the goroutine spawn + merge overhead exceeds the work
// itself (the worker sweep recorded before this cutover ran 10–13%
// slower at two and at eight workers than at one). Worker invariance
// makes the cutover observationally silent: results are bit-identical
// on both sides of the threshold. A package variable, not a constant,
// so tests can force either side.
var serialCutoverNodes = 16

// gripSlot is the state one worker slot owns: its scratch workspace,
// the row Gram matrix of the parent it is expanding, and two grow-only
// pools of n×n product buffers, one per depth parity. A level takes
// buffers from its parity's pool on demand, only for children that get
// a product, so a warm pool serves every later level allocation-free.
type gripSlot struct {
	ms     *mat.Scratch
	parent *mat.Gram
	bufs   [2][]*mat.Dense
	used   int // buffers of the current level's pool taken so far
}

// take returns the slot's next free product buffer of pool par.
func (sl *gripSlot) take(par, n int) *mat.Dense {
	pool := &sl.bufs[par]
	if sl.used == len(*pool) {
		*pool = append(*pool, mat.New(n, n))
	}
	p := (*pool)[sl.used]
	sl.used++
	return p
}

// gripSearch owns the reusable state of one Gripenberg search on a
// switching graph: one gripSlot per worker, the column Gram matrix of
// every mode for the pre-product gate, the flat children array with its
// per-node slot offsets, and the two frontier slices and word slabs
// the merge fills.
//
// Everything a level writes alternates by depth%2. Children of level d
// take product buffers from their slot's pool bufs[d%2], while their
// parents — the frontier, written one level earlier — live in pools
// bufs[(d-1)%2] of any slot (or outside the pools entirely, for seed
// and resume products). A buffer is only reused two levels later, by
// which time every node of its level has either been merged into the
// next frontier (its children now hold the data) or pruned, so no live
// product is ever overwritten. The argument holds slot by slot, since a
// slot writes pool bufs[p] only at levels of parity p. The merge of
// level d writes the next frontier into fronts[d%2] and its words into
// words[d%2], while it reads the parents' from the other parity.
type gripSearch struct {
	set      []*mat.Dense
	g        *Graph
	n        int
	grams    []*mat.Gram // grams[l] = set[l]ᵀ·set[l]
	slots    []*gripSlot
	children []gripChild
	// offs lays out the children by prefix sums of the frontier's
	// out-degrees: node fi owns slots [offs[fi], offs[fi+1]). On the
	// complete graph over k matrices that is the fi·k layout.
	offs   []int
	fronts [2][]gripNode
	words  [2][]int

	// Per-level state read by fn. Written by expandLevel before the
	// parallel call; the worker WaitGroup orders these writes before any
	// worker read. preGate is whether the pre-product gate can fire at
	// this level.
	frontier []gripNode
	lower    rateGate
	prune    rateGate
	par      int
	preGate  bool

	// fn is the per-range worker body, built once at construction so
	// expanding a level does not allocate a fresh closure.
	fn func(ctx context.Context, slot, lo, hi int) error
}

func newGripSearch(set []*mat.Dense, g *Graph, workers int) *gripSearch {
	n := set[0].Rows()
	s := &gripSearch{
		set:   set,
		g:     g,
		n:     n,
		slots: make([]*gripSlot, workers),
	}
	s.grams = make([]*mat.Gram, len(set))
	for l, a := range set {
		s.grams[l] = mat.NewGram(n)
		s.grams[l].SetRowGram(a.T())
	}
	s.fn = func(ctx context.Context, slot, lo, hi int) error {
		sl := s.slotFor(slot)
		for fi := lo; fi < hi; fi++ {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			if gerr := s.expandNodeGuarded(fi, sl); gerr != nil {
				return gerr
			}
		}
		return nil
	}
	return s
}

// slotFor lazily builds the slot's state. Each slot is owned by
// exactly one goroutine per level, and the level barrier
// (sync.WaitGroup in parallelSlots) orders one level's writes before
// the next level's reads, so the lazy initialization is race-free.
func (s *gripSearch) slotFor(slot int) *gripSlot {
	if s.slots[slot] == nil {
		s.slots[slot] = &gripSlot{ms: mat.NewScratch(s.n), parent: mat.NewGram(s.n)}
	}
	return s.slots[slot]
}

// expandLevel expands frontier[0:expand] into s.children, one slot per
// graph edge out of each node (s.offs holds the layout), sharded across
// the worker pool with the serial cutover applied. The returned slice
// aliases s.children and is valid until the next expandLevel call;
// child products live in the depth-parity pools. lower is the search's
// lower bound at the start of the level: a child whose spectral-radius
// bound rate cannot exceed it gets rho = 0 without an eigenvalue solve.
// prune is the level-start prune threshold lower + δ: a child whose
// certificate bound cannot exceed it carries prune as its certificate,
// without a norm computation. A child that both rules skip on its
// pre-product bound carries no product (prod is nil); the merge prunes
// it. Pass -Inf for both to compute every product, every rho and every
// norm.
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
	for _, sl := range s.slots {
		if sl != nil {
			sl.used = 0
		}
	}
	s.frontier = frontier
	s.lower = newRateGate(lower, depth)
	s.prune = newRateGate(prune, depth)
	s.par = depth % 2
	// Every frontier certificate is ≥ 0, so with a prune threshold of
	// −Inf or NaN no child can pass the gate's certificate test.
	s.preGate = prune > math.Inf(-1)
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
//
// The pre-product gate bounds both of NormBoundsScratch's bounds on
// the child by F̂ = mat.ProductFroBound(mode Gram, parent Gram). When
// !lower.above(F̂) (or the walk does not close) gatedRadius would
// return 0, and when the parent certificate is at most the prune
// threshold or prune.atMost(F̂) gatedCert would return the threshold:
// the rate gates are monotone, so a bound that clears them lets every
// smaller bound clear them too. Such a child records exactly those
// values, skipping its multiply, its sweep and its product buffer.
func (s *gripSearch) expandNodeGuarded(fi int, sl *gripSlot) (err error) {
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
	if s.preGate {
		sl.parent.SetRowGram(nd.prod)
	}
	certDead := nd.cert <= s.prune.v
	out := s.children[s.offs[fi]:s.offs[fi+1]]
	for j, nxt := range s.g.Next[nd.at] {
		lbl := s.g.Nodes[nxt]
		closed := closes(s.g, nxt, nd.start)
		if s.preGate {
			f := mat.ProductFroBound(s.grams[lbl], sl.parent)
			if (!closed || !s.lower.above(f)) && (certDead || !math.IsNaN(nd.cert) && s.prune.atMost(f)) {
				out[j] = gripChild{cert: s.prune.v, at: nxt}
				continue
			}
		}
		p := sl.take(s.par, s.n)
		mat.MulInto(p, s.set[lbl], nd.prod)
		nb := mat.NormBoundsScratch(p, sl.ms)
		rho := 0.0
		if closed {
			var rerr error
			if rho, rerr = gatedRadius(p, nb, sl.ms, s.lower); rerr != nil {
				return rerr
			}
		}
		out[j] = gripChild{prod: p, rho: rho, cert: gatedCert(p, nb, sl.ms, nd.cert, s.prune), at: nxt}
	}
	return nil
}

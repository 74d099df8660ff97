// Package jsr computes bounds on the joint spectral radius (JSR) of a
// finite set of matrices — the quantity the paper uses to decide
// asymptotic stability of the switched closed loop ξ(k+1) = Ω(h_k) ξ(k)
// under arbitrary switching (Section V):
//
//	ρ(A) = lim_{m→∞} max_σ ‖Ω_σm‖^{1/m}
//
// The system is asymptotically stable for every possible sequence of
// overruns if and only if ρ(A) < 1 (Eq. 10).
//
// Two estimators are provided:
//
//   - BruteForceBoundsCtx enumerates all products up to a given length
//     and applies the Gel'fand–Berger–Wang sandwich (Eq. 12):
//     max_ℓ max_σ ρ(Ω_σℓ)^{1/ℓ} ≤ ρ(A) ≤ min_ℓ max_σ ‖Ω_σℓ‖^{1/ℓ}.
//
//   - GripenbergCtx runs the classic branch-and-bound: it grows
//     products, raises the lower bound with every spectral radius it
//     sees, and prunes any branch whose norm certificate cannot push
//     the JSR above lower+δ, terminating with ρ(A) ∈ [lower, lower+δ]
//     when the frontier drains (G. Gripenberg, "Computing the joint
//     spectral radius", 1996).
//
// Both run over the walks of a switching graph (Graph): the
// unconstrained set is the complete graph (CompleteGraph), and
// ConstrainedEstimateCtx runs the same two engines on a caller's graph,
// such as the weakly-hard automaton of WeaklyHardGraph. Only closed
// walks, which may repeat forever, bound the JSR from below.
//
// EstimateCtx, EstimateRawCtx and ConstrainedEstimateCtx combine the
// two on each invariant block of the set (blocks.go): an exact
// permutation puts every matrix in one block-triangular form, and the
// JSR is the largest JSR of the diagonal blocks.
//
// All of them return certified bounds, not estimates: the upper bounds
// are valid regardless of truncation depth. All are parallel: independent
// subtrees of the product tree are sharded across a worker pool, and
// the merge is deterministic, so the returned Bounds (including the
// WitnessWord) are bit-identical for every worker count.
//
// Certification searches are combinatorial, so long-running jobs are
// first-class: every estimator takes a context first, and a cancelled
// context or an expired context deadline degrades gracefully to a valid
// best-so-far bracket signalled by ErrDeadline, worker panics are
// isolated into *PanicError values, and Gripenberg searches can
// snapshot and resume their frontier at level boundaries
// (GripenbergState) with bit-identical results.
package jsr

import (
	"context"
	"errors"
	"fmt"
	"math"

	"adaptivertc/internal/mat"
)

// Bounds brackets the joint spectral radius. WitnessWord, when
// non-empty, is the index sequence (in product order: the word w with
// P_w = A_{w[len-1]} ··· A_{w[0]}) whose averaged spectral radius
// attains Lower — for the closed-loop sets of this repository it is the
// worst-case overrun pattern the analysis found.
type Bounds struct {
	Lower       float64
	Upper       float64
	WitnessWord []int
}

// CertifiesStable reports that ρ(A) < 1 is proven.
func (b Bounds) CertifiesStable() bool { return b.Upper < 1 }

// CertifiesUnstable reports that ρ(A) ≥ 1 is proven.
func (b Bounds) CertifiesUnstable() bool { return b.Lower >= 1 }

// Gap returns Upper - Lower.
func (b Bounds) Gap() float64 { return b.Upper - b.Lower }

func (b Bounds) String() string {
	return fmt.Sprintf("[%.6f, %.6f]", b.Lower, b.Upper)
}

// ErrEmptySet is returned when no matrices are supplied.
var ErrEmptySet = errors.New("jsr: empty matrix set")

// ErrNonFinite is returned when a supplied matrix contains a NaN or
// ±Inf entry. Non-finite entries must be rejected up front: every
// comparison against NaN is false, so a search run on such a set would
// never raise its lower bound or trip a prune test and would silently
// return a vacuous bracket (e.g. Upper stuck at 0, which reads as
// certified-stable).
var ErrNonFinite = errors.New("jsr: matrix set contains a non-finite entry")

// ErrBudget is returned by GripenbergCtx when the node or depth budget is
// exhausted before the requested accuracy δ is certified. The budget is
// spent before giving up: when a whole level no longer fits, the search
// expands as many frontier nodes as the remaining budget allows and
// folds their children into the bracket, so the bounds returned
// alongside ErrBudget are both valid and as tight as the budget could
// make them. The searches return it as ErrNodeBudget or ErrDepthCap,
// which name the budget that stopped them; errors.Is matches ErrBudget
// on both.
var ErrBudget = errors.New("jsr: node or depth budget exhausted before reaching requested accuracy")

// ErrNodeBudget is the ErrBudget of a search that spent MaxNodes.
var ErrNodeBudget error = budgetError("jsr: node budget (MaxNodes) spent before reaching requested accuracy")

// ErrDepthCap is the ErrBudget of a search that reached MaxDepth with
// live branches left.
var ErrDepthCap error = budgetError("jsr: depth cap (MaxDepth) reached before reaching requested accuracy")

// budgetError is a stop reason that wraps ErrBudget.
type budgetError string

func (e budgetError) Error() string { return string(e) }
func (e budgetError) Unwrap() error { return ErrBudget }

// ErrDeadline is returned when the context is cancelled or its
// deadline expires before the requested accuracy is certified. The
// bounds returned alongside it are valid best-so-far: the bracket
// reflects the last fully merged level, so it is safe to act on, and —
// when a Snapshot hook was installed — to resume from.
// Errors carrying ErrDeadline also wrap the context's cause, so both
// errors.Is(err, ErrDeadline) and errors.Is(err, context.Canceled) (or
// context.DeadlineExceeded) hold.
var ErrDeadline = errors.New("jsr: deadline or cancellation before reaching requested accuracy")

// ErrInverted is returned when a computed bracket has Lower above
// Upper by more than rounding. The true JSR cannot lie in such a
// bracket, so one of its certificates is wrong in floating point: an
// upper bound that came out low, most likely a 2-norm whose power
// iteration stalled short of the true norm. It is an internal error,
// never a verdict: the bracket is not returned, and callers must not
// act on or cache the result.
var ErrInverted = errors.New("jsr: lower bound above upper bound; a certificate is unsound in floating point")

// invertedTol is the relative excess of Lower over Upper that still
// counts as rounding where a lower and an upper certificate meet. They
// meet for a normal product, whose spectral radius is its 2-norm, and
// the two come out of different kernels; and the eigenvalues of a
// nearly defective product (a 2×2 scaled permutation squared, say) are
// accurate only to about √ε ≈ 1.5e-8 of its norm, so a lower bound may
// overshoot by that much. Such a bracket collapses to [Lower, Lower].
// The tolerance leaves a margin of about 60 over √ε and is far below
// any gap the certified sets show (0.35% or more on the PMSM sets) and
// the −72% inversion of a stalled norm iteration.
const invertedTol = 1e-6

// certified returns b and err, with Upper raised to Lower when the two
// cross by rounding, or ErrInverted in place of both when Lower exceeds
// Upper by more than invertedTol relative.
func certified(b Bounds, err error) (Bounds, error) {
	if b.Lower > b.Upper {
		if b.Lower-b.Upper > invertedTol*b.Lower {
			return Bounds{}, fmt.Errorf("%w: lower %v, upper %v", ErrInverted, b.Lower, b.Upper)
		}
		b.Upper = b.Lower
	}
	return b, err
}

// deadlineErr composes ErrDeadline with the context's cause.
func deadlineErr(ctx context.Context, cause error) error {
	if cause == nil {
		cause = ctx.Err()
	}
	if cause == nil {
		return ErrDeadline
	}
	return fmt.Errorf("%w: %w", ErrDeadline, cause)
}

func validateSet(set []*mat.Dense) (int, error) {
	if len(set) == 0 {
		return 0, ErrEmptySet
	}
	n := set[0].Rows()
	for i, m := range set {
		if !m.IsSquare() || m.Rows() != n {
			return 0, fmt.Errorf("jsr: matrix %d is %d×%d, want %d×%d", i, m.Rows(), m.Cols(), n, n)
		}
		if m.HasNaN() {
			return 0, fmt.Errorf("jsr: matrix %d: %w", i, ErrNonFinite)
		}
	}
	return n, nil
}

// norm is the product norm used by both algorithms. The spectral norm
// gives the tightest one-step certificates among the cheap norms.
func norm(m *mat.Dense) float64 { return mat.TwoNorm(m) }

// rateGate decides, for one exponent 1/depth and one threshold v,
// whether a bound's rate x^{1/depth} exceeds v, with exactly the result
// of math.Pow(x, 1/depth) > v but without calling Pow for almost every
// x. It compares x against lo = v^depth·(1−m) and hi = v^depth·(1+m),
// computed once per level: x ≤ lo is "not above", x > hi is "above",
// and only an x inside the band between them pays the Pow comparison.
// The margin m = 1e-9 dwarfs the combined rounding of v^depth, of the
// exponent 1/depth and of Pow itself (below 1e-12 relative in the
// depth-th power for depth ≤ rateGateMaxDepth and v^depth inside
// 2^±1000), so outside the band the Pow comparison cannot come out the
// other way (DESIGN §11). Outside that range, for v ≤ 0 or NaN, and for
// deeper levels, lo and hi are NaN, every comparison with them is
// false, and every x takes the Pow path. At depth 1, Pow(x, 1) is x, so
// lo = hi = v and the gate is exact with no band.
type rateGate struct {
	v, exp, lo, hi float64
}

const (
	// rateGateMargin is the relative half-width m of the band around
	// v^depth in which a rateGate falls back to Pow.
	rateGateMargin = 1e-9
	// rateGateMaxDepth is the deepest level at which the rounding
	// argument behind the band is made; deeper levels always use Pow.
	rateGateMaxDepth = 1024
)

// newRateGate builds the gate for threshold v at depth (exponent
// 1/depth, computed exactly as the search computes it).
func newRateGate(v float64, depth int) rateGate {
	g := rateGate{v: v, exp: 1 / float64(depth), lo: math.NaN(), hi: math.NaN()}
	if depth == 1 {
		g.lo, g.hi = v, v
		return g
	}
	if depth > rateGateMaxDepth || !(v > 0) {
		return g
	}
	if p := math.Pow(v, float64(depth)); p >= 0x1p-1000 && p <= 0x1p1000 {
		g.lo, g.hi = p*(1-rateGateMargin), p*(1+rateGateMargin)
	}
	return g
}

// above reports math.Pow(x, 1/depth) > v.
func (g rateGate) above(x float64) bool {
	if x <= g.lo {
		return false
	}
	if x > g.hi {
		return true
	}
	return math.Pow(x, g.exp) > g.v
}

// atMost reports math.Pow(x, 1/depth) <= v. It is !above(x) except
// where the Pow comparison meets a NaN, which makes both false.
func (g rateGate) atMost(x float64) bool {
	if x <= g.lo {
		return true
	}
	if x > g.hi {
		return false
	}
	return math.Pow(x, g.exp) <= g.v
}

// gatedRadius returns the spectral radius of p, or 0 without the
// eigenvalue solve when p's rate ρ^exp provably cannot exceed the
// threshold of lower, a gate at the caller's depth. Every caller folds
// the result into a running maximum with a strict > against a value no
// smaller than that threshold, so a skipped product loses that
// comparison with either value. Two bounds gate the solve: nb.Radius,
// and, when it fails against a finite threshold, the Gelfand bound,
// which costs one product. nb must be mat.NormBoundsScratch(p, ms).
func gatedRadius(p *mat.Dense, nb mat.NormBounds, ms *mat.Scratch, lower rateGate) (float64, error) {
	if !lower.above(nb.Radius) {
		return 0, nil
	}
	if !math.IsInf(lower.v, -1) && !lower.above(mat.SquareRadiusBoundScratch(p, nb, ms)) {
		return 0, nil
	}
	return mat.SpectralRadiusScratch(p, ms)
}

// gatedCert returns a child's branch certificate min(parent, ‖p‖^exp),
// for the exponent and the prune threshold of the gate prune. When the
// 2-norm bound nb.TwoNorm already puts that minimum at or below the
// threshold, it returns the threshold instead, without the power
// iteration. Callers prune children against a threshold no lower than
// prune's, so such a child is pruned with either value, and a pruned
// child's certificate is read nowhere. nb.TwoNorm is never NaN, so the
// skip happens exactly when math.Min(parent, nb.TwoNorm^exp) ≤ the
// threshold, NaN parent and NaN threshold included. nb must be
// mat.NormBoundsScratch(p, ms).
func gatedCert(p *mat.Dense, nb mat.NormBounds, ms *mat.Scratch, parent float64, prune rateGate) float64 {
	if parent <= prune.v || !math.IsNaN(parent) && prune.atMost(nb.TwoNorm) {
		return prune.v
	}
	return math.Min(parent, math.Pow(mat.TwoNormScratch(p, ms), prune.exp))
}

// WitnessRate replays a witness word against a matrix set and returns
// the averaged spectral radius ρ(P_w)^{1/len(w)} it attains — the
// lower-bound certificate the word encodes. The product is assembled in
// the same association order the estimators use (successive left
// multiplications), so replaying a WitnessWord returned together with a
// set reproduces the returned Lower bit for bit.
func WitnessRate(set []*mat.Dense, word []int) (float64, error) {
	if _, err := validateSet(set); err != nil {
		return 0, err
	}
	if len(word) == 0 {
		return 0, errors.New("jsr: empty witness word")
	}
	for _, i := range word {
		if i < 0 || i >= len(set) {
			return 0, fmt.Errorf("jsr: witness index %d out of range [0,%d)", i, len(set))
		}
	}
	p := set[word[0]]
	for _, i := range word[1:] {
		p = mat.Mul(set[i], p)
	}
	rho, err := mat.SpectralRadius(p)
	if err != nil {
		return 0, err
	}
	return math.Pow(rho, 1/float64(len(word))), nil
}

// ---------------------------------------------------------------------------
// Brute-force sandwich (Eq. 12), streamed.

// BruteForceOptions configures the brute-force enumeration. The zero
// value selects defaults.
type BruteForceOptions struct {
	// Workers is the number of enumeration goroutines; ≤ 0 selects
	// GOMAXPROCS. The returned Bounds are bit-identical for every value.
	Workers int
}

// bruteChunkCap bounds how many depth-first roots the shallow phase may
// materialize, which caps resident memory regardless of maxLen.
const bruteChunkCap = 4096

// levelBest accumulates the per-product-length extrema of the Eq. 12
// sandwich: the largest spectral radius (with the first word, in
// enumeration order, attaining it) and the largest norm.
type levelBest struct {
	rho  float64
	word []int
	norm float64
}

// fold merges a candidate into the accumulator; candidates must arrive
// in enumeration order (strictly-greater wins, so the first maximizer
// is kept).
func (lb *levelBest) fold(rho float64, word []int, nv float64) {
	if rho > lb.rho {
		lb.rho = rho
		lb.word = append([]int(nil), word...)
	}
	if nv > lb.norm {
		lb.norm = nv
	}
}

// bruteAcc is one sweep's accumulator: the per-level extrema, plus for
// each level l a gate against the best rate ρ^{1/j} that a shorter level
// j < l has folded so far. bruteFinalize lets level l set Lower only
// with a rate strictly above every shorter level's final rate, and the
// rates folded so far are lower bounds on those, so a level-l product
// whose ρ bound's rate is at most gate[l]'s threshold can never supply
// Lower.
type bruteAcc struct {
	best []levelBest
	rate []float64  // rate[j]: Pow(best[j].rho, 1/j) as folded so far
	gate []rateGate // gate[l]: built from max over j < l of rate[j]
}

func newBruteAcc(maxLen int) *bruteAcc {
	a := &bruteAcc{best: make([]levelBest, maxLen+1), rate: make([]float64, maxLen+1), gate: make([]rateGate, maxLen+1)}
	for l := range a.gate {
		// Nothing is known yet: a gate at −Inf passes every bound.
		a.gate[l] = newRateGate(math.Inf(-1), 1)
	}
	return a
}

// fork returns an accumulator with empty extrema that starts from a's
// rates and gates: a deep-phase worker's accumulator, gated by the
// completed shallow levels.
func (a *bruteAcc) fork() *bruteAcc {
	return &bruteAcc{
		best: make([]levelBest, len(a.best)),
		rate: append([]float64(nil), a.rate...),
		gate: append([]rateGate(nil), a.gate...),
	}
}

// raise records that level l's best ρ rose to rho, and rebuilds the
// gate of every longer level whose threshold rises with it. A threshold
// of 0 stays at −Inf: the same-level gate already skips a zero bound.
func (a *bruteAcc) raise(l int, rho float64) {
	r := math.Pow(rho, 1/float64(l))
	if !(r > a.rate[l]) {
		return
	}
	a.rate[l] = r
	best := 0.0
	for j := 1; j < len(a.gate); j++ {
		if j > l && best > 0 && best > a.gate[j].v {
			a.gate[j] = newRateGate(best, j)
		}
		best = math.Max(best, a.rate[j])
	}
}

// fold folds one level-l product into the accumulator; closed reports
// whether its walk closes back to its start. A product whose bounds
// cannot matter is folded with rho = 0 (no eigenvalue solve) or nv = 0
// (no power iteration): its walk is open, so repeating it is not
// admissible, or its ρ bound cannot beat the level's running maximum,
// or its rate cannot beat a shorter level's, or its norm bound cannot
// beat the running norm maximum. levelBest.fold keeps strictly greater
// candidates only, so a skipped product would not have won with its
// true value either, or it would have won only a level that
// bruteFinalize passes over. The scratch kernels are bit-identical to
// the allocating ones.
func (a *bruteAcc) fold(l int, p *mat.Dense, word []int, closed bool, ms *mat.Scratch) error {
	lb := &a.best[l]
	nb := mat.NormBoundsScratch(p, ms)
	// gatedRadius's two bounds, each tried against both gates.
	rho := 0.0
	same, shorter := newRateGate(lb.rho, 1), a.gate[l]
	if closed && same.above(nb.Radius) && shorter.above(nb.Radius) {
		if sq := mat.SquareRadiusBoundScratch(p, nb, ms); same.above(sq) && shorter.above(sq) {
			var err error
			if rho, err = mat.SpectralRadiusScratch(p, ms); err != nil {
				return err
			}
		}
	}
	nv := 0.0
	if nb.TwoNorm > lb.norm {
		nv = mat.TwoNormScratch(p, ms)
	}
	if rho > lb.rho {
		a.raise(l, rho)
	}
	lb.fold(rho, word, nv)
	return nil
}

// bruteWalk is a shallow-phase walk of the switching graph: its
// product and label word, and the graph nodes where it starts and ends.
type bruteWalk struct {
	prod      *mat.Dense
	word      []int
	at, start int
}

// bruteFinalize assembles the Eq. 12 sandwich from the accumulators of
// levels 1..upTo. With upTo == 0 (a run cut before any level completed)
// the bracket is the vacuous [0, +Inf).
func bruteFinalize(acc []levelBest, upTo int) Bounds {
	lower := 0.0
	upper := math.Inf(1)
	var witness []int
	for l := 1; l <= upTo; l++ {
		exp := 1 / float64(l)
		if lb := math.Pow(acc[l].rho, exp); lb > lower {
			lower = lb
			witness = acc[l].word
		}
		if ub := math.Pow(acc[l].norm, exp); ub < upper {
			upper = ub
		}
	}
	return Bounds{Lower: lower, Upper: upper, WitnessWord: witness}
}

// BruteForceBoundsCtx evaluates every product of length 1..maxLen and
// returns the Eq. 12 sandwich. The work grows as k^maxLen for k
// matrices; callers should keep k^maxLen below ~10⁶. The product tree
// is enumerated depth-first in chunks: a shallow breadth-first pass
// materializes at most bruteChunkCap subtree roots, and workers stream
// the deep levels holding one product per tree level each, so resident
// memory is O(chunk + workers·maxLen·n²) rather than the O(k^maxLen·n²)
// of a stored breadth-first sweep.
//
// On cancellation the sandwich over the fully completed levels is
// returned together with an error wrapping ErrDeadline — partial levels
// never contribute, because a norm maximum over part of a level is not
// a valid upper bound. A sandwich whose Lower exceeds its Upper is
// returned as ErrInverted.
func BruteForceBoundsCtx(ctx context.Context, set []*mat.Dense, maxLen int, opt BruteForceOptions) (Bounds, error) {
	if _, err := validateSet(set); err != nil {
		return Bounds{}, err
	}
	return certified(bruteForce(ctx, set, CompleteGraph(len(set)), maxLen, opt))
}

// bruteForce is the Eq. 12 enumerator behind BruteForceBoundsCtx and
// the estimators' blocks, over the walks of g of length 1..maxLen in walk
// order: by start node, then successor by successor in g.Next order. On
// the complete graph that is lexicographic word order. Every walk's
// norm bounds Upper; only walks that close back to their start bound
// Lower. set and g are validated by the caller.
func bruteForce(ctx context.Context, set []*mat.Dense, g *Graph, maxLen int, opt BruteForceOptions) (Bounds, error) {
	if maxLen < 1 {
		return Bounds{}, fmt.Errorf("jsr: maxLen must be ≥ 1, got %d", maxLen)
	}
	workers := resolveWorkers(opt.Workers)
	acc := newBruteAcc(maxLen)
	n := set[0].Rows()

	// Shallow phase: breadth-first levels in walk order, up to the split
	// depth, where depth-first streaming starts: the first level that
	// reaches maxLen, holds 4·workers walks, or whose next level would
	// exceed bruteChunkCap. The last level seeds the chunks. The split
	// depends on the worker count, but the result does not: every walk's
	// product is assembled by the same left-multiplication chain and
	// every level is visited in the same walk order in either phase.
	ms := mat.NewScratch(n)
	level := make([]bruteWalk, len(g.Nodes))
	for i, lbl := range g.Nodes {
		level[i] = bruteWalk{prod: set[lbl], word: []int{lbl}, at: i, start: i}
	}
	splitDepth := 1
	for ; ; splitDepth++ {
		if err := ctx.Err(); err != nil {
			return bruteFinalize(acc.best, splitDepth-1), deadlineErr(ctx, err)
		}
		for _, w := range level {
			if err := acc.fold(splitDepth, w.prod, w.word, closes(g, w.at, w.start), ms); err != nil {
				return Bounds{}, err
			}
		}
		if splitDepth == maxLen || len(level) >= 4*workers {
			break
		}
		size := 0
		for _, w := range level {
			size += len(g.Next[w.at])
		}
		if size > bruteChunkCap {
			break
		}
		next := make([]bruteWalk, 0, size)
		for _, w := range level {
			for _, nxt := range g.Next[w.at] {
				lbl := g.Nodes[nxt]
				next = append(next, bruteWalk{prod: mat.Mul(set[lbl], w.prod), word: childWord(w.word, lbl), at: nxt, start: w.start})
			}
		}
		level = next
	}

	// Deep phase: each worker slot streams its contiguous range of chunks
	// depth-first, in order, into one accumulator forked from the shallow
	// one and carried across its chunks, so its running maxima and
	// shorter-level gates keep what earlier chunks found. The slots merge
	// in range order, so the per-level "first maximizer" is the first one
	// in walk order, exactly as a sequential sweep would pick it.
	if splitDepth < maxLen {
		parts := make([][]levelBest, workers)
		err := parallelSlots(ctx, len(level), workers, func(ctx context.Context, slot, lo, hi int) error {
			// Per-slot scratch: one spectral-norm/eig workspace plus one
			// preallocated product buffer per tree level, so the streaming
			// DFS performs zero allocations per node (words are only
			// materialized on the rare fold improvements). A level-indexed
			// buffer is safe because a node's product is only read while
			// its children are computed, and children use the next level's
			// buffer. The scratch kernels are bit-identical to the
			// allocating ones, so bounds are unchanged.
			ms := mat.NewScratch(n)
			prods := make([]*mat.Dense, maxLen+1)
			for l := splitDepth + 1; l <= maxLen; l++ {
				prods[l] = mat.New(n, n)
			}
			path := make([]int, maxLen)
			part := acc.fork()
			var dfs func(prod *mat.Dense, length, at, start int) error
			dfs = func(prod *mat.Dense, length, at, start int) error {
				for _, nxt := range g.Next[at] {
					if err := ctx.Err(); err != nil {
						return err
					}
					p := prods[length+1]
					lbl := g.Nodes[nxt]
					mat.MulInto(p, set[lbl], prod)
					path[length] = lbl
					if err := part.fold(length+1, p, path[:length+1], closes(g, nxt, start), ms); err != nil {
						return err
					}
					if length+1 < maxLen {
						if err := dfs(p, length+1, nxt, start); err != nil {
							return err
						}
					}
				}
				return nil
			}
			for ci := lo; ci < hi; ci++ {
				if err := ctx.Err(); err != nil {
					return err
				}
				w := level[ci]
				copy(path, w.word)
				if err := expandGuard(w.word, func() error {
					return dfs(w.prod, splitDepth, w.at, w.start)
				}); err != nil {
					return err
				}
			}
			parts[slot] = part.best
			return nil
		})
		if err != nil {
			if isCtxErr(err) {
				// The deep phase is all-or-nothing: cut runs fall back
				// to the completed shallow levels.
				return bruteFinalize(acc.best, splitDepth), deadlineErr(ctx, err)
			}
			return Bounds{}, err
		}
		mergeDeepParts(acc.best, parts, splitDepth, maxLen)
	}
	return bruteFinalize(acc.best, maxLen), nil
}

// mergeDeepParts folds the per-slot deep-phase accumulators into acc in
// slot order, which is range order, preserving the sequential
// first-maximizer tie-break. Slots that received no range are nil.
func mergeDeepParts(acc []levelBest, parts [][]levelBest, splitDepth, maxLen int) {
	for _, part := range parts {
		if part == nil {
			continue
		}
		for l := splitDepth + 1; l <= maxLen; l++ {
			acc[l].fold(part[l].rho, part[l].word, part[l].norm)
		}
	}
}

// ---------------------------------------------------------------------------
// Gripenberg branch-and-bound.

// GripenbergOptions configures the branch-and-bound search. Zero values
// select defaults.
type GripenbergOptions struct {
	Delta    float64 // target accuracy; default 1e-3
	MaxDepth int     // maximum product length; default 40
	MaxNodes int     // total node budget; default 2_000_000
	// Workers is the number of expansion goroutines; ≤ 0 selects
	// GOMAXPROCS. The returned Bounds are bit-identical for every value.
	Workers int
	// DisableEllipsoid has no effect: every search runs on the set it
	// is given. It is kept only because bench/tracer sets it, and goes
	// with ROADMAP item 8.
	DisableEllipsoid bool
	// Snapshot, when non-nil, is invoked at every level boundary
	// (including the seed state) with the serializable search state; a
	// returned error aborts the search. Wire it to a checkpoint writer
	// to make long jobs crash-resumable.
	Snapshot func(GripenbergState) error
	// Resume, when non-nil, restarts the search from a snapshot instead
	// of the singleton seed. The matrix set must be the one the
	// snapshot was taken from (same content, same order); the resumed
	// search then finishes with bounds bit-identical to an
	// uninterrupted run. Supported by GripenbergCtx only; constrained
	// searches reject it.
	Resume *GripenbergState
}

func (o GripenbergOptions) withDefaults() (GripenbergOptions, error) {
	//lint:ignore floatcompare the zero value of Delta is the documented "use the default" sentinel
	if o.Delta == 0 {
		o.Delta = 1e-3
	}
	if o.Delta < 0 {
		return o, fmt.Errorf("jsr: negative delta %g", o.Delta)
	}
	if o.MaxDepth == 0 {
		o.MaxDepth = 40
	}
	if o.MaxNodes == 0 {
		o.MaxNodes = 2_000_000
	}
	o.Workers = resolveWorkers(o.Workers)
	return o, nil
}

// GripenbergState is a serializable snapshot of a Gripenberg search at
// a level boundary. It stores product words only: on resume the
// products and branch certificates are replayed against the matrix set
// with exactly the multiplication chain and min/pow fold the original
// expansion used, so every recomputed float64 matches bit for bit and a
// resumed search ends with the same Bounds as an uninterrupted one.
// K pins the set cardinality; callers persisting snapshots across
// processes should additionally record a content hash of the set (the
// jsrtool checkpoint does).
type GripenbergState struct {
	K        int     // cardinality of the matrix set
	Depth    int     // product length of every frontier word
	Nodes    int     // node budget already spent
	Lower    float64 // best certified lower bound so far
	Witness  []int   // word attaining Lower
	Frontier [][]int // words of the live branches, in frontier order
	// Block is the search-order position of the invariant block the
	// snapshot was taken in (see EstimateCtx); 0 for GripenbergCtx,
	// which searches its set as one block. Resuming re-runs the earlier
	// blocks, so the state of only one block is ever stored.
	Block int
}

// gripNode is a live branch: a walk of the switching graph that
// started at graph node start and ends at at, with its product and
// label word.
type gripNode struct {
	prod      *mat.Dense
	word      []int
	at, start int
	// cert is the branch certificate min over prefixes of ‖P‖^{1/len}:
	// every infinite continuation of this word has asymptotic growth
	// rate at most cert, so a branch with cert ≤ lower+δ cannot raise
	// the JSR beyond lower+δ and is pruned.
	cert float64
}

// gripChild is one freshly expanded product of a level-synchronous
// expansion pass, ending at graph node at; the word is reconstructed
// from the parent and at's label during the merge, so workers never
// allocate it.
type gripChild struct {
	prod *mat.Dense
	rho  float64
	cert float64
	at   int
}

func frontierMax(fr []gripNode) float64 {
	m := 0.0
	for _, nd := range fr {
		if nd.cert > m {
			m = nd.cert
		}
	}
	return m
}

func childWord(parent []int, label int) []int {
	w := make([]int, len(parent)+1)
	copy(w, parent)
	w[len(w)-1] = label
	return w
}

// cutBounds is the valid bracket at a level boundary where the search
// stops early (budget, deadline, depth): the live certificates — and
// the pruned branches, which by construction sit below lower+δ — cap
// the JSR.
func cutBounds(lower, delta float64, witness []int, frontier []gripNode) Bounds {
	return Bounds{Lower: lower, Upper: math.Max(lower+delta, frontierMax(frontier)), WitnessWord: witness}
}

// seedFrontier builds the depth-1 frontier of one-node walks, one per
// graph node, and the initial lower bound from the nodes with a self
// loop, lowest index winning ties.
func seedFrontier(set []*mat.Dense, g *Graph) ([]gripNode, float64, []int, error) {
	lower := 0.0
	var witness []int
	frontier := make([]gripNode, 0, len(g.Nodes))
	for i, lbl := range g.Nodes {
		if closes(g, i, i) {
			rho, err := mat.SpectralRadius(set[lbl])
			if err != nil {
				return nil, 0, nil, err
			}
			if rho > lower {
				lower = rho
				witness = []int{lbl}
			}
		}
		a := set[lbl]
		frontier = append(frontier, gripNode{prod: a, word: []int{lbl}, at: i, start: i, cert: norm(a)})
	}
	return frontier, lower, witness, nil
}

// captureGripState deep-copies the loop-top state into a snapshot.
func captureGripState(k, depth, nodes int, lower float64, witness []int, frontier []gripNode) GripenbergState {
	words := make([][]int, len(frontier))
	for i := range frontier {
		words[i] = append([]int(nil), frontier[i].word...)
	}
	return GripenbergState{
		K: k, Depth: depth, Nodes: nodes, Lower: lower,
		Witness:  append([]int(nil), witness...),
		Frontier: words,
	}
}

// rebuildFrontier replays a snapshot's words against the set: each
// node's product is the same left-multiplication chain and each
// certificate the same incremental min/pow fold the original expansion
// performed, so the rebuilt frontier is bit-identical to the one that
// was snapshotted. Snapshots come from the complete graph only, whose
// node i carries label i, so a word's walk starts at its first label
// and ends at its last.
func rebuildFrontier(set []*mat.Dense, st *GripenbergState) ([]gripNode, error) {
	if st.K != len(set) {
		return nil, fmt.Errorf("jsr: resume state is for %d matrices, set has %d", st.K, len(set))
	}
	if st.Depth < 1 {
		return nil, fmt.Errorf("jsr: resume state has invalid depth %d", st.Depth)
	}
	frontier := make([]gripNode, len(st.Frontier))
	for i, word := range st.Frontier {
		if len(word) != st.Depth {
			return nil, fmt.Errorf("jsr: resume frontier word %d has length %d, want depth %d", i, len(word), st.Depth)
		}
		for _, ai := range word {
			if ai < 0 || ai >= len(set) {
				return nil, fmt.Errorf("jsr: resume frontier word %d has index %d out of range [0,%d)", i, ai, len(set))
			}
		}
		prod := set[word[0]]
		cert := norm(prod)
		for l, ai := range word[1:] {
			prod = mat.Mul(set[ai], prod)
			cert = math.Min(cert, math.Pow(norm(prod), 1/float64(l+2)))
		}
		frontier[i] = gripNode{prod: prod, word: append([]int(nil), word...), at: word[len(word)-1], start: word[0], cert: cert}
	}
	return frontier, nil
}

// mergeSurvivors keeps the children whose certificates survive the
// final per-level lower bound (at least as strong as the sequential
// running prune, and worker-count independent), materializing their
// words. The children are those of the last expandLevel at depth, laid
// out by s.offs; the parent cursor fi advances with it. The survivors
// go into the search's frontier slice of depth's parity and their words
// into its word slab of that parity, so both are valid until the merge
// two levels later; frontier, the parents, lives in the other parity
// or outside the search.
func (s *gripSearch) mergeSurvivors(frontier []gripNode, children []gripChild, depth int, bound float64) []gripNode {
	live := 0
	for ci := range children {
		if children[ci].cert > bound {
			live++
		}
	}
	par := depth % 2
	if cap(s.words[par]) < live*depth {
		// Twice the need: words grow by one label per level, so a
		// frontier that keeps its size outgrows an exact slab every
		// time its parity comes round.
		s.words[par] = make([]int, 2*live*depth)
	}
	slab := s.words[par][:live*depth]
	next := s.fronts[par][:0]
	fi := 0
	for ci := range children {
		for s.offs[fi+1] <= ci {
			fi++
		}
		if c := &children[ci]; c.cert > bound {
			parent := &frontier[fi]
			word := slab[:depth:depth]
			slab = slab[depth:]
			copy(word, parent.word)
			word[depth-1] = s.g.Nodes[c.at]
			next = append(next, gripNode{
				prod:  c.prod,
				word:  word,
				at:    c.at,
				start: parent.start,
				cert:  c.cert,
			})
		}
	}
	s.fronts[par] = next
	return next
}

// GripenbergCtx runs the branch-and-bound JSR algorithm. Each level of
// the search tree is expanded level-synchronously across the worker
// pool: the frontier is sharded by index, every child's spectral radius
// and norm certificate is computed independently, and the merge raises
// the lower bound with a lowest-index tie-break before pruning the
// children against the final per-level bound — so the result is
// identical for every worker count. On normal termination the true JSR
// lies in [Lower, Upper] with Upper ≤ Lower + δ. If the node budget
// runs out first, the remaining budget is spent on a partial level
// before valid but looser bounds are returned together with
// ErrNodeBudget; a search that reaches MaxDepth with live branches
// returns its bracket with ErrDepthCap. Both wrap ErrBudget.
//
// Cancellation and an expired context deadline degrade the same way:
// the search stops at a level boundary (a partially expanded level is
// discarded, keeping results worker-count independent), returns the
// bracket of the last fully merged level, and signals it with an error
// wrapping ErrDeadline. The Snapshot hook fires at every level boundary before
// the cancellation check, so the last persisted snapshot always matches
// the returned bounds and Resume continues bit-identically. A bracket
// whose Lower exceeds its Upper is returned as ErrInverted.
func GripenbergCtx(ctx context.Context, set []*mat.Dense, opt GripenbergOptions) (Bounds, error) {
	if _, err := validateSet(set); err != nil {
		return Bounds{}, err
	}
	opt, err := opt.withDefaults()
	if err != nil {
		return Bounds{}, err
	}
	if opt.Resume != nil && opt.Resume.Block != 0 {
		return Bounds{}, fmt.Errorf("jsr: resume state is for invariant block %d of an EstimateCtx run; GripenbergCtx searches one block", opt.Resume.Block)
	}
	b, _, err := gripenberg(ctx, set, CompleteGraph(len(set)), opt, 0)
	return certified(b, err)
}

// gripenberg is the search behind GripenbergCtx and the blocks of
// EstimateCtx, EstimateRawCtx and ConstrainedEstimateCtx, over the
// walks of g on set as given: each branch is a walk, its children
// follow the walk's out-edges, and only children whose walk closes back
// to its start raise the lower bound. On the complete graph every walk
// closes and every child list is the whole set in index order, which is
// the unconstrained search. set and g are validated and opt has its defaults filled by
// the caller; Snapshot and Resume assume the complete graph. It also
// returns the nodes the search counted against MaxNodes.
//
// floor ≥ 0 is a prune floor: branches and eigenvalue solves are gated
// against max(lower, floor) in place of lower. The returned bracket is
// the search's own, so a caller with a positive floor must raise its
// Upper to at least floor + δ, where the pruned branches may sit. A
// floor of 0 changes nothing, since lower ≥ 0.
func gripenberg(ctx context.Context, set []*mat.Dense, g *Graph, opt GripenbergOptions, floor float64) (Bounds, int, error) {
	k := len(set)
	var (
		err      error
		lower    float64
		witness  []int
		nodes    int
		frontier []gripNode
		depth    int
	)
	if opt.Resume != nil {
		frontier, err = rebuildFrontier(set, opt.Resume)
		if err != nil {
			return Bounds{}, 0, err
		}
		depth, nodes, lower = opt.Resume.Depth, opt.Resume.Nodes, opt.Resume.Lower
		witness = append([]int(nil), opt.Resume.Witness...)
	} else {
		frontier, lower, witness, err = seedFrontier(set, g)
		if err != nil {
			return Bounds{}, 0, err
		}
		depth, nodes = 1, len(frontier)
	}

	s := newGripSearch(set, g, opt.Workers)

	for len(frontier) > 0 && depth < opt.MaxDepth {
		// The loop top is a level boundary: snapshot it first, so even
		// a cut on this very iteration leaves a resumable state, then
		// honor cancellation with the best-so-far bracket.
		if opt.Snapshot != nil {
			if serr := opt.Snapshot(captureGripState(k, depth, nodes, lower, witness, frontier)); serr != nil {
				return Bounds{}, nodes, fmt.Errorf("jsr: snapshot: %w", serr)
			}
		}
		if cerr := ctx.Err(); cerr != nil {
			return cutBounds(lower, opt.Delta, witness, frontier), nodes, deadlineErr(ctx, cerr)
		}

		// Prune against the current lower bound, or the floor above it.
		gate := math.Max(lower, floor)
		kept := frontier[:0]
		for _, nd := range frontier {
			if nd.cert > gate+opt.Delta {
				kept = append(kept, nd)
			}
		}
		frontier = kept
		if len(frontier) == 0 {
			break
		}

		// Budget: expand the longest prefix of whole nodes whose
		// out-degrees fit the remaining budget. A partial level still
		// tightens lower (and the certificates folded below) before
		// ErrBudget.
		expand, grown := 0, 0
		for ; expand < len(frontier); expand++ {
			d := len(g.Next[frontier[expand].at])
			if grown+d > opt.MaxNodes-nodes {
				break
			}
			grown += d
		}
		if expand == 0 {
			return cutBounds(lower, opt.Delta, witness, frontier), nodes, ErrNodeBudget
		}

		depth++
		exp := 1 / float64(depth)
		children, err := s.expandLevel(ctx, frontier, expand, depth, opt.Workers, gate, gate+opt.Delta)
		if err != nil {
			if isCtxErr(err) {
				// Mid-level cut: discard the partial level and report
				// the bracket of the last fully merged one — exactly
				// the state the Snapshot hook last persisted.
				return cutBounds(lower, opt.Delta, witness, frontier), nodes, deadlineErr(ctx, err)
			}
			return Bounds{}, nodes, err
		}
		nodes += len(children)

		// Merge pass 1: raise the lower bound; the scan order makes the
		// lowest-index maximizer the witness, and the cursor fi tracks
		// each child's parent.
		bestIdx, bestParent := -1, 0
		for ci, fi := 0, 0; ci < len(children); ci++ {
			for s.offs[fi+1] <= ci {
				fi++
			}
			if lb := math.Pow(children[ci].rho, exp); lb > lower {
				lower, bestIdx, bestParent = lb, ci, fi
			}
		}
		if bestIdx >= 0 {
			witness = childWord(frontier[bestParent].word, g.Nodes[children[bestIdx].at])
		}

		// Merge pass 2: keep children that survive the final per-level
		// lower bound.
		next := s.mergeSurvivors(frontier, children, depth, math.Max(lower, floor)+opt.Delta)

		if expand < len(frontier) {
			// Budget exhausted mid-level: unexpanded nodes stay live, so
			// their certificates cap the JSR alongside the new children's.
			upper := math.Max(lower+opt.Delta, math.Max(frontierMax(next), frontierMax(frontier[expand:])))
			return Bounds{Lower: lower, Upper: upper, WitnessWord: witness}, nodes, ErrNodeBudget
		}
		frontier = next
	}
	if len(frontier) == 0 {
		return Bounds{Lower: lower, Upper: lower + opt.Delta, WitnessWord: witness}, nodes, nil
	}
	// Depth limit hit with live branches: their certificates cap the JSR.
	return cutBounds(lower, opt.Delta, witness, frontier), nodes, ErrDepthCap
}

// EstimateRawCtx runs EstimateCtx's pipeline without the Lyapunov
// preconditioning — the -raw mode of jsrtool and the certification
// service: the invariant blocks are bracketed on the caller's own
// entries. Budget or deadline cuts are tolerated as EstimateCtx
// tolerates them, and an inverted bracket is ErrInverted.
func EstimateRawCtx(ctx context.Context, set []*mat.Dense, bruteLen int, opt GripenbergOptions) (Bounds, error) {
	if _, err := validateSet(set); err != nil {
		return Bounds{}, err
	}
	return estimate(ctx, set, CompleteGraph(len(set)), bruteLen, opt, false)
}

// EstimateCtx combines both algorithms with Lyapunov preconditioning.
// The set is first split into its invariant blocks (see blocks.go): an
// exact permutation puts every matrix in one block-triangular form, and
// the JSR is the largest JSR of the diagonal blocks. Each block is
// transformed by a simultaneous similarity (JSR-invariant) that
// tightens the norm certificates, then a shallow brute-force pass
// provides a lower bound and norm sandwich and Gripenberg refines to
// the requested accuracy, searching the blocks largest-first; the
// intersection of each block's two brackets bounds that block, and the
// largest block Upper is the Upper returned. Every candidate witness is
// replayed against the caller's (untransformed, unsplit) matrices and
// Lower is set to the best rate one actually attains there, so
// WitnessRate(set, out.WitnessWord) reproduces out.Lower. A non-nil
// error satisfying errors.Is for ErrBudget or ErrDeadline indicates the
// bracket is looser than requested but still valid — this holds on the
// parallel worker paths too, not just the sequential ones. A bracket
// whose Lower exceeds its Upper is never returned: the error is
// ErrInverted. A context deadline and opt.MaxNodes cover the whole
// pipeline, the budget spent block by block in search order.
// opt.Snapshot/opt.Resume apply to the Gripenberg phase, whose state
// lives on one preconditioned block and names it in
// GripenbergState.Block; resuming recomputes the same deterministic
// split and preconditioners and re-runs the blocks searched before it.
func EstimateCtx(ctx context.Context, set []*mat.Dense, bruteLen int, opt GripenbergOptions) (Bounds, error) {
	if _, err := validateSet(set); err != nil {
		return Bounds{}, err
	}
	return estimate(ctx, set, CompleteGraph(len(set)), bruteLen, opt, true)
}

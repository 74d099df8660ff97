package jsr

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"adaptivertc/internal/mat"
)

// This file holds the invariant-block split that EstimateCtx and
// EstimateRawCtx run first. Let G be the union graph of the set's exact
// nonzeros: an edge i → j whenever some Aₖ[i][j] ≠ 0. Ordering the
// states by a topological order of G's strongly connected components
// is a permutation that puts every Aₖ in the same block-triangular
// form, with one diagonal block per component. The permutation only
// moves entries, so it is exact, and the JSR of a block-triangular
// family is the largest JSR of its diagonal-block families (Jungers,
// The Joint Spectral Radius, 2009, Prop. 1.5). So each block is
// certified on its own, with smaller products, and the brackets
// combine:
//
//   - Upper is the largest block Upper;
//   - Lower is the best rate a block's witness word attains when it is
//     replayed on the caller's full set, since every product's spectral
//     radius is at least that of each of its diagonal blocks.
//
// Gripenberg searches the blocks in descending order of their
// brute-force Lower, each under a prune floor: the best Lower of the
// blocks searched before it. A branch whose certificate is at most the
// floor + δ cannot lift the overall Upper above a bound the floor
// already pays for, so it is pruned, and a product whose rate cannot
// beat the floor skips its eigenvalue solve. The block's Upper is then
// min(bf.Upper, max(gp.Upper, floor + δ)), and a block whose
// brute-force Upper is already at most floor + δ skips Gripenberg. The
// first block searches with no floor, so an irreducible set, one block
// under the identity permutation, runs the unsplit pipeline bit for
// bit.

// splitBlocks returns the state sets of the diagonal blocks of set's
// exact block-triangular form: the strongly connected components of
// the union graph of exact nonzeros, each in ascending state order,
// ordered by smallest state. An irreducible set gives one block holding
// every state in order.
func splitBlocks(set []*mat.Dense) [][]int {
	n := set[0].Rows()
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && anyNonzero(set, i, j) {
				adj[i] = append(adj[i], j)
			}
		}
	}
	// Tarjan's algorithm.
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	var blocks [][]int
	next := 0
	var visit func(v int)
	visit = func(v int) {
		index[v], low[v] = next, next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if index[w] < 0 {
				visit(w)
				low[v] = min(low[v], low[w])
			} else if onStack[w] {
				low[v] = min(low[v], index[w])
			}
		}
		if low[v] != index[v] {
			return
		}
		var block []int
		for {
			w := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			onStack[w] = false
			block = append(block, w)
			if w == v {
				break
			}
		}
		sort.Ints(block)
		blocks = append(blocks, block)
	}
	for v := 0; v < n; v++ {
		if index[v] < 0 {
			visit(v)
		}
	}
	sort.Slice(blocks, func(a, b int) bool { return blocks[a][0] < blocks[b][0] })
	return blocks
}

// anyNonzero reports whether entry (i, j) is nonzero in any matrix.
func anyNonzero(set []*mat.Dense, i, j int) bool {
	for _, a := range set {
		//lint:ignore floatcompare the block structure is the set's exact zeros
		if a.At(i, j) != 0 {
			return true
		}
	}
	return false
}

// restrict returns the block's family: each matrix's principal
// submatrix on the states of block. A block of every state returns set
// itself.
func restrict(set []*mat.Dense, block []int) []*mat.Dense {
	if len(block) == set[0].Rows() {
		return set
	}
	out := make([]*mat.Dense, len(set))
	for l, a := range set {
		b := mat.New(len(block), len(block))
		for r, i := range block {
			for c, j := range block {
				b.Set(r, c, a.At(i, j))
			}
		}
		out[l] = b
	}
	return out
}

// blockRun is one block's share of an estimate: the set it is
// certified on (restricted, and preconditioned unless raw) and its two
// brackets. searched is false for a block that skipped Gripenberg.
type blockRun struct {
	work     []*mat.Dense
	bf, gp   Bounds
	searched bool
	lower    float64 // max(bf.Lower, gp.Lower), on work
	upper    float64 // the block's Upper
}

// estimate is the pipeline behind EstimateCtx (precondition true),
// EstimateRawCtx and ConstrainedEstimateCtx, over the walks of g: split
// set into its invariant blocks, bracket each by brute force, search
// them largest-first under the prune floor, and combine. A switching
// graph constrains which products occur, not the states they act on,
// so the split holds under every graph. opt.Snapshot fires in every
// searched block with the block's search-order position in
// GripenbergState.Block; opt.Resume re-runs the blocks before its
// Block without the hook and resumes that one. set and g are validated
// by the caller.
func estimate(ctx context.Context, set []*mat.Dense, g *Graph, bruteLen int, opt GripenbergOptions, precondition bool) (Bounds, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return Bounds{}, err
	}

	blocks := splitBlocks(set)
	runs := make([]blockRun, len(blocks))
	var errs []error
	for i, block := range blocks {
		work := restrict(set, block)
		if precondition {
			work, _, _ = Precondition(work)
		}
		bf, bferr := certified(bruteForce(ctx, work, g, bruteLen, BruteForceOptions{Workers: opt.Workers}))
		if bferr != nil && !errors.Is(bferr, ErrDeadline) {
			return Bounds{}, bferr
		}
		errs = append(errs, bferr)
		runs[i] = blockRun{work: work, bf: bf, lower: bf.Lower, upper: bf.Upper}
	}

	order := make([]int, len(runs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return runs[order[a]].bf.Lower > runs[order[b]].bf.Lower })

	resumeAt := 0
	if opt.Resume != nil {
		resumeAt = opt.Resume.Block
		if resumeAt < 0 || resumeAt >= len(order) {
			return Bounds{}, fmt.Errorf("jsr: resume state is for block %d, the set has %d", resumeAt, len(order))
		}
	}
	floor, left := 0.0, opt.MaxNodes
	for pos, bi := range order {
		r := &runs[bi]
		if pos > 0 {
			if r.bf.Upper <= floor+opt.Delta {
				if pos == resumeAt {
					return Bounds{}, fmt.Errorf("jsr: resume state is for block %d, which this search skips", resumeAt)
				}
				floor = math.Max(floor, r.lower)
				continue
			}
			// A cut or spent run searches no further block: the rest
			// keep their brute-force brackets, which are valid alone.
			if cerr := ctx.Err(); cerr != nil {
				errs = append(errs, deadlineErr(ctx, cerr))
				break
			}
			if left <= 0 {
				errs = append(errs, ErrNodeBudget)
				break
			}
		}
		gopt := opt
		gopt.MaxNodes, gopt.Resume, gopt.Snapshot = left, nil, nil
		if pos == resumeAt {
			gopt.Resume = opt.Resume
		}
		if hook := opt.Snapshot; hook != nil && pos >= resumeAt {
			at := pos
			gopt.Snapshot = func(st GripenbergState) error {
				st.Block = at
				return hook(st)
			}
		}
		gp, nodes, gerr := gripenberg(ctx, r.work, g, gopt, floor)
		if gerr != nil && !errors.Is(gerr, ErrBudget) && !errors.Is(gerr, ErrDeadline) {
			return Bounds{}, gerr
		}
		errs = append(errs, gerr)
		left -= nodes
		r.gp, r.searched = gp, true
		r.lower = math.Max(r.bf.Lower, gp.Lower)
		r.upper = math.Min(r.bf.Upper, math.Max(gp.Upper, floor+opt.Delta))
		floor = math.Max(floor, r.lower)
		if errors.Is(gerr, ErrDeadline) {
			break
		}
	}

	out := Bounds{}
	var words [][]int
	for pos, bi := range order {
		r := &runs[bi]
		out.Upper = math.Max(out.Upper, r.upper)
		// The first block to reach the best Lower supplies the witness,
		// its brute-force word unless Gripenberg beat it.
		if pos == 0 || r.lower > out.Lower {
			out.Lower, out.WitnessWord = r.lower, r.bf.WitnessWord
			if r.searched && r.gp.Lower > r.bf.Lower {
				out.WitnessWord = r.gp.WitnessWord
			}
		}
		words = append(words, r.bf.WitnessWord)
		if r.searched {
			words = append(words, r.gp.WitnessWord)
		}
	}
	// Each block's bracket holds on its own (preconditioned) family;
	// Lower must be a rate attained on the caller's matrices. Similarity
	// preserves spectral radii in real arithmetic but not in floating
	// point, and a block's product is only part of the full one, so
	// every candidate witness is replayed on the caller's set and the
	// best rate attained there is returned.
	bestRate, bestWord := 0.0, out.WitnessWord
	for _, w := range words {
		if len(w) == 0 {
			continue
		}
		rate, rerr := WitnessRate(set, w)
		if rerr != nil {
			continue
		}
		if rate > bestRate {
			bestRate, bestWord = rate, w
		}
	}
	if bestRate > 0 {
		out.Lower, out.WitnessWord = bestRate, bestWord
	}
	return certified(out, errors.Join(errs...))
}

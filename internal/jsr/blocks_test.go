package jsr

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"adaptivertc/internal/mat"
)

// blockFamily builds the family whose i-th matrix is diag(a[i], b[i])
// with coupling c·J (J all ones) in the rows of a and the columns of b,
// a block-triangular family when c ≠ 0, and then renumbers its states
// by perm: state s of the result is state perm[s] of the block form.
func blockFamily(a, b []*mat.Dense, c float64, perm []int) []*mat.Dense {
	na, nb := a[0].Rows(), b[0].Rows()
	n := na + nb
	out := make([]*mat.Dense, len(a))
	for l := range a {
		m := mat.New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				pi, pj := perm[i], perm[j]
				switch {
				case pi < na && pj < na:
					m.Set(i, j, a[l].At(pi, pj))
				case pi >= na && pj >= na:
					m.Set(i, j, b[l].At(pi-na, pj-na))
				case pi < na:
					m.Set(i, j, c)
				}
			}
		}
		out[l] = m
	}
	return out
}

// statesOf returns, in ascending order, the states s with perm[s] in
// [lo, hi): where blockFamily put the block-form states lo..hi-1.
func statesOf(perm []int, lo, hi int) []int {
	var out []int
	for s, p := range perm {
		if p >= lo && p < hi {
			out = append(out, s)
		}
	}
	return out
}

func scaleSet(set []*mat.Dense, c float64) []*mat.Dense {
	out := make([]*mat.Dense, len(set))
	for i, a := range set {
		out[i] = mat.Scale(c, a)
	}
	return out
}

// blockCase is a reducible family, its blocks as splitBlocks must find
// them, and how many of them EstimateCtx searches: the others skip
// Gripenberg under the floor.
type blockCase struct {
	name     string
	set      []*mat.Dense
	blocks   [][]int
	searched int
}

// blockCases returns the reducible families of the block tests. perm
// scatters the states so that no block is contiguous.
//
//   - diagonal: pmsmLikeSet (3×3, JSR ≈ 0.95) beside the golden pair
//     scaled to JSR 0.5, permuted;
//   - triangular: the same with every entry coupling the first block
//     to the second set to 0.3, so only the permutation hides the
//     block-triangular form;
//   - small-dominant: a 1×1 block with JSR 0.99 beside pmsmLikeSet, so
//     the smaller block carries the JSR and is searched first;
//   - two-searched: twoSearchedBlocks, whose second block is searched
//     under the floor the first leaves.
func blockCases() []blockCase {
	perm := []int{3, 0, 4, 2, 1}
	golden := scaleSet(goldenPair(), 0.5/math.Phi)
	one := []*mat.Dense{mat.FromRows([][]float64{{0.99}}), mat.FromRows([][]float64{{-0.97}})}
	permSmall := []int{2, 1, 3, 0}
	return []blockCase{
		{"diagonal", blockFamily(pmsmLikeSet(), golden, 0, perm), [][]int{statesOf(perm, 0, 3), statesOf(perm, 3, 5)}, 1},
		{"triangular", blockFamily(pmsmLikeSet(), golden, 0.3, perm), [][]int{statesOf(perm, 0, 3), statesOf(perm, 3, 5)}, 1},
		{"small-dominant", blockFamily(pmsmLikeSet(), one, 0.3, permSmall), [][]int{statesOf(permSmall, 3, 4), statesOf(permSmall, 0, 3)}, 1},
		{"two-searched", twoSearchedBlocks(), [][]int{statesOf(perm, 0, 3), statesOf(perm, 3, 5)}, 2},
	}
}

// twoSearchedBlocks is a reducible family whose second block is
// searched too: the golden pair scaled to JSR 0.95 (brute-force Lower
// 0.95, searched first) beside pmsmLikeSet (brute-force Lower 0.9458,
// JSR up to 0.966), whose brute-force Upper stays above the floor the
// first block leaves, at δ = 1e-3 and at resilienceOpts' δ = 0.02
// alike.
func twoSearchedBlocks() []*mat.Dense {
	return blockFamily(pmsmLikeSet(), scaleSet(goldenPair(), 0.95/math.Phi), 0.3, []int{3, 0, 4, 2, 1})
}

// sortBlocks orders block state sets by smallest state, as splitBlocks
// does.
func sortBlocks(blocks [][]int) [][]int {
	out := slices.Clone(blocks)
	slices.SortFunc(out, func(a, b []int) int { return a[0] - b[0] })
	return out
}

func TestSplitBlocks(t *testing.T) {
	for _, tc := range blockCases() {
		got := splitBlocks(tc.set)
		if want := sortBlocks(tc.blocks); !slices.EqualFunc(got, want, slices.Equal[[]int]) {
			t.Errorf("%s: blocks %v, want %v", tc.name, got, want)
		}
	}
	// The lifted PMSM set splits on exact zeros alone.
	if got := splitBlocks(pmsmLiftedSet(t)); !slices.EqualFunc(got, [][]int{{0, 3, 5, 7}, {1, 2, 4, 6, 8}}, slices.Equal[[]int]) {
		t.Errorf("pmsm: blocks %v, want [[0 3 5 7] [1 2 4 6 8]]", got)
	}
	// An irreducible set is one block under the identity permutation,
	// and its block family is the caller's set itself.
	set := pmsmLikeSet()
	if got := splitBlocks(set); !slices.EqualFunc(got, [][]int{{0, 1, 2}}, slices.Equal[[]int]) {
		t.Fatalf("irreducible: blocks %v, want [[0 1 2]]", got)
	}
	if w := restrict(set, []int{0, 1, 2}); &w[0] != &set[0] {
		t.Error("restrict copied an irreducible set")
	}
	// A nilpotent strictly triangular set has no cycle: every state is
	// its own block.
	strict := []*mat.Dense{mat.FromRows([][]float64{{0, 1, 2}, {0, 0, 3}, {0, 0, 0}})}
	if got := splitBlocks(strict); !slices.EqualFunc(got, [][]int{{0}, {1}, {2}}, slices.Equal[[]int]) {
		t.Errorf("strict: blocks %v, want [[0] [1] [2]]", got)
	}
	b, err := EstimateCtx(context.Background(), strict, 3, GripenbergOptions{})
	if err != nil || b.Lower != 0 || b.Upper != 0 {
		t.Errorf("strict: %v, %v; want [0, 0]", b, err)
	}
}

// TestEstimateBlockFamilies checks the combined bracket of each
// reducible family against its blocks certified one at a time, on both
// pipelines. The JSR is the largest block JSR, so every block's Lower
// is at most the overall Upper, and the overall Lower is at most the
// largest block Upper; when every search converges, the prune floor
// costs Upper at most δ over the largest block Upper. The witness
// replays to Lower on the full set. The coupling of the triangular
// family leaves every block, and so Upper, bit for bit as in the
// diagonal one. The snapshot hook shows which blocks EstimateCtx
// searched.
func TestEstimateBlockFamilies(t *testing.T) {
	ctx := context.Background()
	opt := GripenbergOptions{Delta: 1e-3, MaxDepth: 20, MaxNodes: 20_000}
	uppers := map[string]float64{}
	for _, tc := range blockCases() {
		searched := 0
		sopt := opt
		sopt.Snapshot = func(st GripenbergState) error {
			searched = max(searched, st.Block+1)
			return nil
		}
		if _, err := EstimateCtx(ctx, tc.set, 5, sopt); err != nil && !errors.Is(err, ErrBudget) {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if searched != tc.searched {
			t.Errorf("%s: EstimateCtx searched %d blocks, want %d", tc.name, searched, tc.searched)
		}
		for _, p := range []struct {
			name string
			fn   func(context.Context, []*mat.Dense, int, GripenbergOptions) (Bounds, error)
		}{{"preconditioned", EstimateCtx}, {"raw", EstimateRawCtx}} {
			name := tc.name + "/" + p.name
			got, err := p.fn(ctx, tc.set, 5, opt)
			if err != nil && !errors.Is(err, ErrBudget) {
				t.Fatalf("%s: %v", name, err)
			}
			if rate, rerr := WitnessRate(tc.set, got.WitnessWord); rerr != nil || rate != got.Lower {
				t.Errorf("%s: witness %v replays to %v (%v), Lower %v", name, got.WitnessWord, rate, rerr, got.Lower)
			}
			largest, converged := 0.0, err == nil
			for _, blk := range tc.blocks {
				alone, aerr := p.fn(ctx, restrict(tc.set, blk), 5, opt)
				if aerr != nil && !errors.Is(aerr, ErrBudget) {
					t.Fatalf("%s block %v: %v", name, blk, aerr)
				}
				if alone.Lower > got.Upper {
					t.Errorf("%s: block %v bracket %v lies above %v", name, blk, alone, got)
				}
				largest, converged = math.Max(largest, alone.Upper), converged && aerr == nil
			}
			if got.Lower > largest || converged && got.Upper > largest+opt.Delta {
				t.Errorf("%s: bracket %v against the largest block Upper %v", name, got, largest)
			}
			uppers[name] = got.Upper
		}
	}
	for _, p := range []string{"preconditioned", "raw"} {
		if d, tr := uppers["diagonal/"+p], uppers["triangular/"+p]; d != tr {
			t.Errorf("%s: triangular Upper %v, diagonal %v", p, tr, d)
		}
	}
}

// TestEstimateBlocksWorkerInvariance: the split, the search order, the
// floors and the shared node budget are worker-count independent, so
// every worker count returns the bits of Workers = 1 on the reducible
// families and the lifted PMSM set, at a node budget that ends the
// search at its depth cap and at one that runs out in the search.
func TestEstimateBlocksWorkerInvariance(t *testing.T) {
	ctx := context.Background()
	sets := map[string][]*mat.Dense{"pmsm": pmsmLiftedSet(t)}
	for _, tc := range blockCases() {
		sets[tc.name] = tc.set
	}
	for name, set := range sets {
		for _, maxNodes := range []int{20_000, 3000} {
			for _, raw := range []bool{false, true} {
				var ref Bounds
				var refErr error
				for i, w := range []int{1, 2, 3, 4, 7} {
					b, err := estimate(ctx, set, CompleteGraph(len(set)), 5, GripenbergOptions{Delta: 1e-3, MaxDepth: 20, MaxNodes: maxNodes, Workers: w}, !raw)
					if err != nil && !errors.Is(err, ErrBudget) {
						t.Fatalf("%s raw=%v nodes=%d w=%d: %v", name, raw, maxNodes, w, err)
					}
					if i == 0 {
						ref, refErr = b, err
						continue
					}
					if !sameBounds(ref, b) || fmt.Sprint(err) != fmt.Sprint(refErr) {
						t.Fatalf("%s raw=%v nodes=%d w=%d: %+v (%v), workers=1 gave %+v (%v)", name, raw, maxNodes, w, b, err, ref, refErr)
					}
				}
			}
		}
	}
}

// TestInvertedBracketIsAnError: ROADMAP item 1's start-orthogonal pair
// makes every 2-norm iteration stall at 0.5 while ρ(A·B)^{1/2} = 1.8.
// Brute force at length 2 and more sees both, and the raw pipeline used
// to return [1.8, 0.501] and a STABLE verdict; now each entry point
// that produces the inverted bracket returns ErrInverted and no bounds.
func TestInvertedBracketIsAnError(t *testing.T) {
	ctx := context.Background()
	set := startOrthogonalPair()
	if b, err := EstimateRawCtx(ctx, set, 6, GripenbergOptions{Delta: 1e-3, MaxDepth: 30}); !errors.Is(err, ErrInverted) || b.Upper != 0 {
		t.Errorf("EstimateRawCtx = %v, %v; want ErrInverted", b, err)
	}
	if b, err := BruteForceBoundsCtx(ctx, set, 6, BruteForceOptions{}); !errors.Is(err, ErrInverted) {
		t.Errorf("BruteForceBoundsCtx = %v, %v; want ErrInverted", b, err)
	}
	if b, err := certified(bruteForce(ctx, set, CompleteGraph(len(set)), 6, BruteForceOptions{})); !errors.Is(err, ErrInverted) {
		t.Errorf("bruteForce on the complete graph = %v, %v; want ErrInverted", b, err)
	}
	// Rounding where the certificates meet is not an inversion: the
	// bracket collapses onto Lower.
	lo := 0.6
	if b, err := certified(Bounds{Lower: lo, Upper: lo * (1 - 1e-9)}, nil); err != nil || b.Upper != lo {
		t.Errorf("rounding-level crossing gave %v, %v; want [%v, %v]", b, err, lo, lo)
	}
	if _, err := certified(Bounds{Lower: lo, Upper: lo * (1 - 1e-5)}, ErrNodeBudget); !errors.Is(err, ErrInverted) || errors.Is(err, ErrBudget) {
		t.Errorf("inversion beyond rounding gave %v; want ErrInverted alone", err)
	}
}

// TestPruneFloorUpper pins the contract of gripenberg's prune floor:
// the bracket it returns is the search's own, and only
// max(Upper, floor + δ) bounds the JSR. The golden pair scaled to JSR
// 0.96 under a floor of 0.955 and δ = 0.02 prunes both seeds at once
// (their norms are 0.96 ≤ 0.975), so the search's own Upper is its seed
// spectral radius + δ, far below the JSR.
func TestPruneFloorUpper(t *testing.T) {
	const jsr, floor, delta = 0.96, 0.955, 0.02
	set := scaleSet(goldenPair(), jsr/math.Phi)
	opt, err := GripenbergOptions{Delta: delta, MaxDepth: 20}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	gp, _, err := gripenberg(context.Background(), set, CompleteGraph(len(set)), opt, floor)
	if err != nil {
		t.Fatal(err)
	}
	if !(gp.Upper < jsr) {
		t.Fatalf("search bracket %v already covers the JSR %v; the case no longer shows the floor term", gp, jsr)
	}
	if up := math.Max(gp.Upper, floor+delta); up < jsr {
		t.Fatalf("max(Upper, floor + δ) = %v is below the JSR %v", up, jsr)
	}
}

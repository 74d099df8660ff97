package mat

import "fmt"

// Slice returns a copy of the submatrix with rows [r0,r1) and columns
// [c0,c1).
func (m *Dense) Slice(r0, r1, c0, c1 int) *Dense {
	if r0 < 0 || r1 > m.rows || c0 < 0 || c1 > m.cols || r0 >= r1 || c0 >= c1 {
		panic(fmt.Sprintf("mat: Slice [%d:%d,%d:%d] of %d×%d", r0, r1, c0, c1, m.rows, m.cols))
	}
	s := New(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		copy(s.data[(i-r0)*s.cols:(i-r0+1)*s.cols], m.data[i*m.cols+c0:i*m.cols+c1])
	}
	return s
}

// SetBlock copies src into m starting at row r0, column c0.
func (m *Dense) SetBlock(r0, c0 int, src *Dense) {
	if r0 < 0 || c0 < 0 || r0+src.rows > m.rows || c0+src.cols > m.cols {
		panic(fmt.Sprintf("mat: SetBlock %d×%d at (%d,%d) of %d×%d", src.rows, src.cols, r0, c0, m.rows, m.cols))
	}
	for i := 0; i < src.rows; i++ {
		copy(m.data[(r0+i)*m.cols+c0:(r0+i)*m.cols+c0+src.cols], src.data[i*src.cols:(i+1)*src.cols])
	}
}

// Block assembles a block matrix from a 2-D grid of submatrices. Every
// row of blocks must have consistent heights and every column of blocks
// consistent widths. A nil entry stands for a zero block whose size is
// inferred from its row and column neighbours; a nil is only legal when
// its row height and column width are pinned by at least one non-nil
// block.
func Block(blocks [][]*Dense) *Dense {
	if len(blocks) == 0 || len(blocks[0]) == 0 {
		panic(fmt.Sprintf("mat: Block of empty grid (%d block rows)", len(blocks)))
	}
	nbr, nbc := len(blocks), len(blocks[0])
	rowH := make([]int, nbr)
	colW := make([]int, nbc)
	for i, brow := range blocks {
		if len(brow) != nbc {
			panic(fmt.Sprintf("mat: Block with ragged grid: block row %d has %d columns, want %d", i, len(brow), nbc))
		}
		for j, b := range brow {
			if b == nil {
				continue
			}
			if rowH[i] == 0 {
				rowH[i] = b.rows
			} else if rowH[i] != b.rows {
				panic(fmt.Sprintf("mat: Block row %d height mismatch: %d vs %d", i, rowH[i], b.rows))
			}
			if colW[j] == 0 {
				colW[j] = b.cols
			} else if colW[j] != b.cols {
				panic(fmt.Sprintf("mat: Block col %d width mismatch: %d vs %d", j, colW[j], b.cols))
			}
		}
	}
	total := func(xs []int, what string) int {
		t := 0
		for i, x := range xs {
			if x == 0 {
				panic(fmt.Sprintf("mat: Block %s %d has only nil blocks; size unknown", what, i))
			}
			t += x
		}
		return t
	}
	m := New(total(rowH, "row"), total(colW, "col"))
	r0 := 0
	for i, brow := range blocks {
		c0 := 0
		for j, b := range brow {
			if b != nil {
				m.SetBlock(r0, c0, b)
			}
			c0 += colW[j]
		}
		r0 += rowH[i]
	}
	return m
}

// HStack concatenates matrices left to right.
func HStack(ms ...*Dense) *Dense { return Block([][]*Dense{ms}) }

// VStack concatenates matrices top to bottom.
func VStack(ms ...*Dense) *Dense {
	grid := make([][]*Dense, len(ms))
	for i, m := range ms {
		grid[i] = []*Dense{m}
	}
	return Block(grid)
}

// BlockDiag assembles a block-diagonal matrix.
func BlockDiag(ms ...*Dense) *Dense {
	r, c := 0, 0
	for _, m := range ms {
		r += m.rows
		c += m.cols
	}
	out := New(r, c)
	r0, c0 := 0, 0
	for _, m := range ms {
		out.SetBlock(r0, c0, m)
		r0 += m.rows
		c0 += m.cols
	}
	return out
}

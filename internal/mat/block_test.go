package mat

import "testing"

func TestSliceAndSetBlock(t *testing.T) {
	m := FromRows([][]float64{
		{1, 2, 3},
		{4, 5, 6},
		{7, 8, 9},
	})
	s := m.Slice(1, 3, 0, 2)
	want := FromRows([][]float64{{4, 5}, {7, 8}})
	if !s.Equal(want) {
		t.Fatalf("Slice = %v", s)
	}
	// Slice must be a copy.
	s.Set(0, 0, 99)
	if m.At(1, 0) != 4 {
		t.Fatal("Slice shares storage")
	}
	m.SetBlock(0, 1, FromRows([][]float64{{-1, -2}}))
	if m.At(0, 1) != -1 || m.At(0, 2) != -2 {
		t.Fatalf("SetBlock result: %v", m)
	}
}

func TestBlockAssembly(t *testing.T) {
	a := Eye(2)
	b := New(2, 1)
	c := RowVec(7, 7)
	d := FromRows([][]float64{{9}})
	m := Block([][]*Dense{
		{a, b},
		{c, d},
	})
	want := FromRows([][]float64{
		{1, 0, 0},
		{0, 1, 0},
		{7, 7, 9},
	})
	if !m.Equal(want) {
		t.Fatalf("Block = %v", m)
	}
}

func TestBlockNilZeroes(t *testing.T) {
	m := Block([][]*Dense{
		{Eye(2), nil},
		{nil, Eye(3)},
	})
	if m.Rows() != 5 || m.Cols() != 5 {
		t.Fatalf("dims = %d×%d", m.Rows(), m.Cols())
	}
	if m.At(0, 0) != 1 || m.At(4, 4) != 1 || m.At(0, 4) != 0 || m.At(3, 0) != 0 {
		t.Fatalf("Block nil fill wrong: %v", m)
	}
}

func TestBlockSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched Block did not panic")
		}
	}()
	Block([][]*Dense{
		{Eye(2), Eye(3)}, // heights differ in one block row
	})
}

func TestBlockAllNilRowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Block with undetermined row did not panic")
		}
	}()
	Block([][]*Dense{
		{nil, nil},
		{Eye(2), Eye(2)},
	})
}

func TestHStackVStack(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := FromRows([][]float64{{3}})
	h := HStack(a, b)
	if h.Rows() != 1 || h.Cols() != 3 || h.At(0, 2) != 3 {
		t.Fatalf("HStack = %v", h)
	}
	v := VStack(a, RowVec(9, 9))
	if v.Rows() != 2 || v.At(1, 1) != 9 {
		t.Fatalf("VStack = %v", v)
	}
}

func TestBlockDiag(t *testing.T) {
	m := BlockDiag(Diag(1, 2), FromRows([][]float64{{3}}))
	want := Diag(1, 2, 3)
	if !m.Equal(want) {
		t.Fatalf("BlockDiag = %v", m)
	}
}

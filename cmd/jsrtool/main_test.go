package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// readSet rejects malformed matrices with an error naming the matrix
// and row, rather than letting mat.FromRows panic on them.
func TestReadSetMalformed(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"ragged", `[[[1,2],[3]]]`, "matrix 0 row 1 has 1 entries, want 2"},
		{"empty matrix", `[[[0.5]],[]]`, "matrix 1 has no rows"},
		{"empty row", `[[[]]]`, "matrix 0 row 0 is empty"},
		{"well-formed", `[[[0.5,1],[0,0.3]],[[0.2,0],[0.4,0.6]]]`, ""},
	}
	dir := t.TempDir()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "_")+".json")
			if err := os.WriteFile(path, []byte(tc.in), 0o644); err != nil {
				t.Fatal(err)
			}
			set, err := readSet(path)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("readSet(%s): %v", tc.in, err)
				}
				if len(set) != 2 || set[0].Rows() != 2 || set[0].Cols() != 2 {
					t.Fatalf("readSet(%s) gave %d matrices, want two 2×2", tc.in, len(set))
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("readSet(%s) error %v, want one containing %q", tc.in, err, tc.wantErr)
			}
		})
	}
}

package api

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"runtime"
	"slices"
	"testing"

	"adaptivertc/internal/jsr"
)

// TestPMSMScenarioGolden pins the engine at the size the service
// certifies: the lifted PMSM closed loop of the paper is 9×9, split by
// EstimateCtx into invariant blocks of 4 and 5 states, and the
// byte-for-byte engine references in internal/jsr run on 2×2 and 3×3
// sets only. Each case resolves a scenario request with the default
// budgets exactly as the service does and runs jsr.EstimateCtx at
// every worker count. Every worker count must give the bits of
// Workers = 1, on any machine. Those bits must also equal the recorded
// values, which were taken on amd64 with FMA (see goldenArch).
func TestPMSMScenarioGolden(t *testing.T) {
	cases := []struct {
		ns           int
		lower, upper uint64
		witness      []int
	}{
		{ns: 2, lower: 0x3fef10a225d17bea, upper: 0x3fef2c25b670c1fe, witness: []int{0, 0, 2, 2}},
		{ns: 5, lower: 0x3fe8b81830e3b295, upper: 0x3fe8f419123cb7e5, witness: []int{3, 0, 3, 0, 0, 3, 3, 0}},
	}
	workers := []int{1, 2, 3, 4, 7, runtime.GOMAXPROCS(0)}
	for _, tc := range cases {
		req := CertifyRequest{Version: RequestVersion, Scenario: &Scenario{Name: "pmsm", RmaxFactor: 1.6, Ns: tc.ns}}
		req.Normalize()
		if err := req.Validate(); err != nil {
			t.Fatalf("ns=%d: %v", tc.ns, err)
		}
		set, err := req.Resolve()
		if err != nil {
			t.Fatalf("ns=%d: %v", tc.ns, err)
		}
		if n := set[0].Rows(); n != 9 {
			t.Fatalf("ns=%d: lifted dimension %d, want 9", tc.ns, n)
		}
		var first jsr.Bounds
		for i, w := range workers {
			b, err := jsr.EstimateCtx(context.Background(), set, req.Brute, req.GripenbergOptions(w))
			if err != nil && !errors.Is(err, jsr.ErrBudget) {
				t.Fatalf("ns=%d workers=%d: %v", tc.ns, w, err)
			}
			if i == 0 {
				first = b
			}
			lo, up := math.Float64bits(b.Lower), math.Float64bits(b.Upper)
			if lo != math.Float64bits(first.Lower) || up != math.Float64bits(first.Upper) || !slices.Equal(b.WitnessWord, first.WitnessWord) {
				t.Errorf("ns=%d workers=%d: got lower %#x upper %#x witness %v, workers=1 gave %#x %#x %v",
					tc.ns, w, lo, up, b.WitnessWord, math.Float64bits(first.Lower), math.Float64bits(first.Upper), first.WitnessWord)
			}
			if runtime.GOARCH != goldenArch {
				continue
			}
			if lo != tc.lower || up != tc.upper || !slices.Equal(b.WitnessWord, tc.witness) {
				t.Errorf("ns=%d workers=%d: got lower %#x upper %#x witness %v, recorded on %s with FMA %#x %#x %v",
					tc.ns, w, lo, up, b.WitnessWord, goldenArch, tc.lower, tc.upper, tc.witness)
			}
		}
		if runtime.GOARCH != goldenArch {
			t.Logf("ns=%d: lower %#x upper %#x witness %v; recorded bits checked on %s only",
				tc.ns, math.Float64bits(first.Lower), math.Float64bits(first.Upper), first.WitnessWord, goldenArch)
		}
	}
}

// goldenArch is the architecture the exact-bits values of this file
// were recorded on. The PMSM design runs through math.Exp, math.Pow and
// math.Log, whose last bits depend on whether the platform fuses
// multiply-adds (Go's amd64 math.Exp uses FMA when the CPU has it, and
// the arm64 compiler fuses on its own), so other architectures check
// only what holds everywhere.
const goldenArch = "amd64"

// TestPMSMTestdataMatchesScenario keeps internal/jsr's 9×9 test set,
// which that package cannot build itself (api and core import jsr),
// equal bit for bit to the scenario it copies. The file was written on
// goldenArch, so other architectures skip the comparison.
func TestPMSMTestdataMatchesScenario(t *testing.T) {
	if runtime.GOARCH != goldenArch {
		t.Skipf("testdata/pmsm_ns5.json was written on %s; the scenario's last bits depend on the platform's math", goldenArch)
	}
	data, err := os.ReadFile("../jsr/testdata/pmsm_ns5.json")
	if err != nil {
		t.Fatal(err)
	}
	var file [][][]float64
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	design, err := BuildScenario("pmsm", 1.6, 5)
	if err != nil {
		t.Fatal(err)
	}
	set := design.OmegaSet()
	if len(file) != len(set) {
		t.Fatalf("testdata holds %d modes, scenario %d", len(file), len(set))
	}
	for m, rows := range file {
		if len(rows) != set[m].Rows() {
			t.Fatalf("mode %d: testdata has %d rows, scenario %d", m, len(rows), set[m].Rows())
		}
		for i, row := range rows {
			if len(row) != set[m].Cols() {
				t.Fatalf("mode %d row %d: testdata has %d columns, scenario %d", m, i, len(row), set[m].Cols())
			}
			for j, v := range row {
				if math.Float64bits(v) != math.Float64bits(set[m].At(i, j)) {
					t.Fatalf("mode %d (%d,%d): testdata %v, scenario %v", m, i, j, v, set[m].At(i, j))
				}
			}
		}
	}
}

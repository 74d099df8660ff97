package lint_test

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"adaptivertc/internal/lint"
)

// TestDriverWorkerInvariance is the determinism contract of the
// parallel driver: the merged findings must be identical for every
// worker count, in content and in order.
func TestDriverWorkerInvariance(t *testing.T) {
	patterns := []string{
		"testdata/errcompare",
		"testdata/maporder",
		"testdata/lockcopy",
		"testdata/goroleak",
		"testdata/floatcompare",
	}
	var ref []lint.Finding
	for _, workers := range []int{1, 2, 8} {
		res, err := lint.Run(".", patterns, lint.Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(res.Findings) == 0 {
			t.Fatalf("workers=%d: violation fixtures produced no findings", workers)
		}
		if res.Packages != len(patterns) {
			t.Fatalf("workers=%d: analyzed %d packages, want %d", workers, res.Packages, len(patterns))
		}
		if ref == nil {
			ref = res.Findings
			continue
		}
		if !reflect.DeepEqual(ref, res.Findings) {
			t.Errorf("workers=%d: findings differ from workers=1 run", workers)
		}
	}
}

// TestUnusedIgnore covers suppression accounting end to end: a used
// directive is silent, a stale one and a typo'd one are findings.
func TestUnusedIgnore(t *testing.T) {
	res, err := lint.Run(".", []string{"testdata/unusedignore"},
		lint.Options{Checks: []*lint.Check{lint.ErrCompare, lint.UnusedIgnore}})
	if err != nil {
		t.Fatal(err)
	}
	var stale, typo int
	for _, f := range res.Findings {
		if f.Check != lint.UnusedIgnore.Name {
			t.Errorf("unexpected non-accounting finding: %s", f)
			continue
		}
		switch {
		case strings.Contains(f.Message, "suppresses nothing"):
			stale++
		case strings.Contains(f.Message, "unregistered check"):
			typo++
		default:
			t.Errorf("unclassified accounting finding: %s", f)
		}
	}
	if stale != 1 || typo != 1 {
		t.Errorf("got %d stale + %d typo accounting findings, want 1 + 1:\n%v", stale, typo, res.Findings)
	}
}

// TestUnusedIgnoreNotRunStaysQuiet: without the check in the run set,
// no accounting happens — a subset run must not flag directives it
// cannot judge.
func TestUnusedIgnoreNotRunStaysQuiet(t *testing.T) {
	res, err := lint.Run(".", []string{"testdata/unusedignore"},
		lint.Options{Checks: []*lint.Check{lint.ErrCompare}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) != 0 {
		t.Errorf("errcompare-only run over the accounting fixture should be clean, got:\n%v", res.Findings)
	}
}

// TestBaselineRoundTrip: a baseline built from a run's findings
// filters exactly those findings; a stale entry surfaces as a
// "baseline" finding; an extra occurrence beyond the accepted count
// stays reported.
func TestBaselineRoundTrip(t *testing.T) {
	loader, err := lint.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	clean, err := lint.Run(".", []string{"testdata/errcompare"}, lint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Findings) == 0 {
		t.Fatal("fixture produced no findings to baseline")
	}

	b := lint.NewBaseline(clean.Findings, loader.ModuleDir)
	res, err := lint.Run(".", []string{"testdata/errcompare"}, lint.Options{Baseline: b})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) != 0 {
		t.Errorf("baselined run should be clean, got:\n%v", res.Findings)
	}
	if res.Baselined != len(clean.Findings) {
		t.Errorf("baselined %d findings, want %d", res.Baselined, len(clean.Findings))
	}

	// Persistence round-trip.
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := b.Write(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := lint.LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := lint.Run(".", []string{"testdata/errcompare"}, lint.Options{Baseline: loaded})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Findings) != 0 {
		t.Errorf("reloaded baseline should filter identically, got:\n%v", res2.Findings)
	}

	// A stale entry must surface rather than rot silently.
	withStale := &lint.Baseline{Entries: append(append([]lint.BaselineEntry(nil), b.Entries...),
		lint.BaselineEntry{File: "internal/lint/testdata/errcompare/errcompare.go", Check: "errcompare", Message: "finding fixed long ago"})}
	res3, err := lint.Run(".", []string{"testdata/errcompare"}, lint.Options{Baseline: withStale})
	if err != nil {
		t.Fatal(err)
	}
	if len(res3.Findings) != 1 || res3.Findings[0].Check != "baseline" {
		t.Errorf("stale entry should produce exactly one baseline finding, got:\n%v", res3.Findings)
	}
}

// TestBaselineCountBounds: an entry accepts exactly Count occurrences;
// line drift must not change that (matching ignores position).
func TestBaselineCountBounds(t *testing.T) {
	loader, err := lint.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	clean, err := lint.Run(".", []string{"testdata/errcompare"}, lint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := lint.NewBaseline(clean.Findings, loader.ModuleDir)

	// Decrement one entry's count: one occurrence must resurface.
	cut := *b
	cut.Entries = append([]lint.BaselineEntry(nil), b.Entries...)
	reduced := false
	for i := range cut.Entries {
		if cut.Entries[i].Count > 1 {
			cut.Entries[i].Count--
			reduced = true
			break
		}
	}
	if !reduced {
		t.Skip("no entry with count > 1 in fixture")
	}
	res, err := lint.Run(".", []string{"testdata/errcompare"}, lint.Options{Baseline: &cut})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) != 1 {
		t.Errorf("reducing one count by one should resurface exactly one finding, got %d:\n%v", len(res.Findings), res.Findings)
	}
}

// TestBaselineJSONStable: the serialized baseline is deterministic
// (sorted entries), so regenerating it on an unchanged tree is a
// no-op diff.
func TestBaselineJSONStable(t *testing.T) {
	loader, err := lint.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	res, err := lint.Run(".", []string{"testdata/errcompare", "testdata/maporder"}, lint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b1 := lint.NewBaseline(res.Findings, loader.ModuleDir)
	b2 := lint.NewBaseline(res.Findings, loader.ModuleDir)
	j1, err := json.Marshal(b1)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(b2)
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Error("baseline serialization is not deterministic")
	}
	for _, e := range b1.Entries {
		if strings.Contains(e.File, "\\") || filepath.IsAbs(e.File) {
			t.Errorf("baseline file %q is not module-relative slash form", e.File)
		}
	}
}

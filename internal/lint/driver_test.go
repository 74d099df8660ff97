package lint_test

import (
	"reflect"
	"strings"
	"testing"

	"adaptivertc/internal/lint"
)

// TestRunMergesInPositionOrder pins Run's multi-package merge: its
// report is every package's RunChecks output, concatenated and put in
// the one findings order, and every package contributes to it.
func TestRunMergesInPositionOrder(t *testing.T) {
	patterns := []string{
		"testdata/errcompare",
		"testdata/maporder",
		"testdata/timeafter",
		"testdata/goroleak",
		"testdata/floatcompare",
	}
	got, err := lint.Run(".", patterns, nil)
	if err != nil {
		t.Fatal(err)
	}
	loader, err := lint.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	var want []lint.Finding
	for _, dir := range patterns {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			t.Fatalf("load %s: %v", dir, err)
		}
		fs := lint.RunChecks(pkg, lint.Checks())
		if len(fs) == 0 {
			t.Errorf("%s contributed no findings", dir)
		}
		want = append(want, fs...)
	}
	lint.SortFindings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Run returned %d findings, want the %d per-package findings in position order:\ngot  %v\nwant %v", len(got), len(want), got, want)
	}
}

// TestUnusedIgnore covers suppression accounting end to end: a used
// directive is silent, a stale one and a typo'd one are findings.
func TestUnusedIgnore(t *testing.T) {
	findings, err := lint.Run(".", []string{"testdata/unusedignore"},
		[]*lint.Check{lint.ErrCompare, lint.UnusedIgnore})
	if err != nil {
		t.Fatal(err)
	}
	var stale, typo int
	for _, f := range findings {
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
		t.Errorf("got %d stale + %d typo accounting findings, want 1 + 1:\n%v", stale, typo, findings)
	}
}

// TestUnusedIgnoreNotRunStaysQuiet: without the check in the run set,
// no accounting happens — a subset run must not flag directives it
// cannot judge.
func TestUnusedIgnoreNotRunStaysQuiet(t *testing.T) {
	findings, err := lint.Run(".", []string{"testdata/unusedignore"},
		[]*lint.Check{lint.ErrCompare})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Errorf("errcompare-only run over the accounting fixture should be clean, got:\n%v", findings)
	}
}

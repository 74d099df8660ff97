package lint_test

import (
	"path/filepath"
	"strings"
	"testing"

	"adaptivertc/internal/lint"
)

// TestMalformedIgnore checks that a reason-less //lint:ignore is
// reported by the driver and does not suppress the finding below it.
func TestMalformedIgnore(t *testing.T) {
	loader, err := lint.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir("testdata/badignore")
	if err != nil {
		t.Fatal(err)
	}
	findings := lint.RunChecks(pkg, []*lint.Check{lint.FloatCompare})
	if len(findings) != 2 {
		t.Fatalf("got %d findings, want 2 (malformed directive + unsuppressed floatcompare):\n%v", len(findings), findings)
	}
	if findings[0].Check != "adalint" || !strings.Contains(findings[0].Message, "malformed") {
		t.Errorf("first finding should report the malformed directive, got %s", findings[0])
	}
	if findings[1].Check != "floatcompare" {
		t.Errorf("malformed directive must not suppress the finding below it, got %s", findings[1])
	}
}

// TestExpandPatternsSkipsTestdata checks that "./..." expansion never
// descends into testdata (fixtures would otherwise fail the real run),
// while naming a testdata directory explicitly still works.
func TestExpandPatternsSkipsTestdata(t *testing.T) {
	loader, err := lint.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := lint.ExpandPatterns(loader.ModuleDir, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no package dirs found under module root")
	}
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Errorf("./... expansion descended into %s", d)
		}
	}
	explicit, err := lint.ExpandPatterns(loader.ModuleDir, []string{"internal/lint/testdata/floatcompare"})
	if err != nil {
		t.Fatal(err)
	}
	if len(explicit) != 1 {
		t.Fatalf("explicit testdata dir should resolve, got %v", explicit)
	}
}

// TestCheckByName covers the -checks flag's lookup.
func TestCheckByName(t *testing.T) {
	for _, c := range lint.Checks() {
		if lint.CheckByName(c.Name) != c {
			t.Errorf("CheckByName(%q) did not round-trip", c.Name)
		}
	}
	if lint.CheckByName("nosuchcheck") != nil {
		t.Error("CheckByName of unknown name should be nil")
	}
}

// TestFixturesAllFlagged is the fixture gate: every registered check
// ships a violation fixture under testdata/<check>, and the check run
// alone on it must report findings (a clean fixture scan would mean
// the check silently rotted).
func TestFixturesAllFlagged(t *testing.T) {
	loader, err := lint.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range lint.Checks() {
		dir := filepath.Join("testdata", c.Name)
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			t.Fatalf("load %s: %v", dir, err)
		}
		if n := len(lint.RunChecks(pkg, []*lint.Check{c})); n == 0 {
			t.Errorf("check %s found nothing in its own fixture %s", c.Name, dir)
		}
	}
}

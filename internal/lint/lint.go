// Package lint implements adalint, the project's static-analysis
// driver, and the checks it runs. The stability certificates produced
// by this repository are only as trustworthy as the numerical code that
// computes them: a silent float-equality bug in internal/mat or an
// unseeded RNG in internal/experiments undermines both the certificate
// and the reproducibility of EXPERIMENTS.md. adalint encodes those
// hazards as machine-checked rules.
//
// The driver is built entirely on the Go standard library (go/parser,
// go/ast, go/types with a module-aware importer) so the hermetic
// tier-1 `go build ./... && go test ./...` stays green offline; there
// is no golang.org/x/tools dependency.
//
// Findings are reported as
//
//	file:line:col: [checkname] message
//
// and may be suppressed by a comment on the offending line, or on the
// line immediately above it:
//
//	//lint:ignore <checkname> <reason>
//
// The reason is mandatory: a suppression documents why the flagged
// pattern is correct (e.g. an exact-zero structural test), and a bare
// suppression would defeat that purpose.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// A Check is one named analysis run over a type-checked package.
type Check struct {
	Name string      // short lowercase identifier used in findings and suppressions
	Doc  string      // one-line description for -list output
	Run  func(*Pass) // invoked once per package
}

// A Finding is one diagnostic produced by a check.
type Finding struct {
	Pos     token.Position
	Check   string
	Message string
}

// String renders the finding in the canonical file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Check, f.Message)
}

// A Pass carries one check's view of one package.
type Pass struct {
	Check *Check
	Pkg   *Package

	findings *[]Finding
}

// Fset returns the file set positions resolve against.
func (p *Pass) Fset() *token.FileSet { return p.Pkg.Fset }

// Files returns the parsed files of the package under analysis.
func (p *Pass) Files() []*ast.File { return p.Pkg.Files }

// Info returns the type-checker results for the package.
func (p *Pass) Info() *types.Info { return p.Pkg.Info }

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.findings = append(*p.findings, Finding{
		Pos:     p.Pkg.Fset.Position(pos),
		Check:   p.Check.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil if the type checker did not
// record one (malformed code).
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if tv, ok := p.Pkg.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// IsModuleObject reports whether obj is declared inside this module
// (as opposed to the standard library).
func (p *Pass) IsModuleObject(obj types.Object) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	return path == p.Pkg.ModulePath || strings.HasPrefix(path, p.Pkg.ModulePath+"/")
}

// Checks returns the full registered suite in stable order.
func Checks() []*Check {
	return []*Check{
		FloatCompare,
		UnseededRand,
		MatAlias,
		NakedPanic,
		DroppedErr,
		CtxLoop,
		HTTPServer,
		ClientTimeout,
		ErrCompare,
		MapOrder,
		LockCopy,
		GoroLeak,
		SyncRename,
		TimeAfter,
		UnusedIgnore,
	}
}

// UnusedIgnore is the suppression-accounting pseudo-check: its
// findings are produced by RunChecks itself, which alone knows which
// directives matched a finding. A //lint:ignore that suppresses
// nothing is dead weight at best — and at worst a directive that
// silently stopped guarding the line it was written for (the code
// moved, the check was renamed, the finding was fixed). Accounting
// findings cannot themselves be suppressed; remove the directive or
// baseline the finding.
var UnusedIgnore = &Check{
	Name: "unusedignore",
	Doc:  "//lint:ignore directive that suppresses nothing, or names an unregistered check",
	Run:  func(*Pass) {}, // implemented inside RunChecks
}

// CheckByName returns the named check, or nil.
func CheckByName(name string) *Check {
	for _, c := range Checks() {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	pos    token.Position
	file   string
	line   int
	check  string
	reason string
}

const ignorePrefix = "lint:ignore"

// directives extracts the //lint:ignore directives of a package.
// Malformed directives (missing check name or reason) are returned as
// findings so they cannot silently fail to suppress.
func directives(pkg *Package) ([]ignoreDirective, []Finding) {
	var dirs []ignoreDirective
	var bad []Finding
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, ignorePrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, ignorePrefix))
				fields := strings.Fields(rest)
				pos := pkg.Fset.Position(c.Pos())
				if len(fields) < 2 {
					bad = append(bad, Finding{
						Pos:     pos,
						Check:   "adalint",
						Message: "malformed //lint:ignore: want \"//lint:ignore <check> <reason>\" with a non-empty reason",
					})
					continue
				}
				dirs = append(dirs, ignoreDirective{
					pos:    pos,
					file:   pos.Filename,
					line:   pos.Line,
					check:  fields[0],
					reason: strings.Join(fields[1:], " "),
				})
			}
		}
	}
	return dirs, bad
}

// suppressed reports whether finding f is covered by a directive on the
// same line or the line immediately above, marking every covering
// directive as used in the accounting array.
func suppressed(f Finding, dirs []ignoreDirective, used []bool) bool {
	hit := false
	for i, d := range dirs {
		if d.file != f.Pos.Filename || d.check != f.Check {
			continue
		}
		if d.line == f.Pos.Line || d.line == f.Pos.Line-1 {
			used[i] = true
			hit = true
		}
	}
	return hit
}

// RunChecks runs the given checks over a loaded package and returns the
// unsuppressed findings, sorted by position. When the run set includes
// UnusedIgnore, suppression accounting runs too: a directive naming an
// unregistered check is always reported, and a directive for a check
// that ran without producing a finding on its line is reported as
// unused. Accounting findings bypass suppression — a directive must
// never be able to vouch for itself.
func RunChecks(pkg *Package, checks []*Check) []Finding {
	var raw []Finding
	accounting := false
	ran := map[string]bool{}
	for _, c := range checks {
		if c.Name == UnusedIgnore.Name {
			accounting = true
			continue
		}
		ran[c.Name] = true
		pass := &Pass{Check: c, Pkg: pkg, findings: &raw}
		c.Run(pass)
	}
	dirs, bad := directives(pkg)
	out := append([]Finding(nil), bad...)
	used := make([]bool, len(dirs))
	for _, f := range raw {
		if !suppressed(f, dirs, used) {
			out = append(out, f)
		}
	}
	if accounting {
		for i, d := range dirs {
			switch {
			case CheckByName(d.check) == nil:
				out = append(out, Finding{
					Pos:     d.pos,
					Check:   UnusedIgnore.Name,
					Message: fmt.Sprintf("//lint:ignore names unregistered check %q (typo?); it can never suppress anything", d.check),
				})
			case ran[d.check] && !used[i]:
				out = append(out, Finding{
					Pos:     d.pos,
					Check:   UnusedIgnore.Name,
					Message: fmt.Sprintf("//lint:ignore %s suppresses nothing: %s reported no finding on this or the next line; remove the stale directive", d.check, d.check),
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Check < out[j].Check
	})
	return out
}

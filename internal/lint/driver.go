package lint

import "sort"

// Run is the adalint driver: it loads every package matched by
// patterns (relative to dir), runs checks over each in turn — nil
// means Checks(), everything — and merges the per-package findings
// into one deterministic, position-sorted report.
//
// The driver is serial. Loading dominates a run, and it is serial by
// nature: the loader memoizes type-checked imports in shared state,
// and most of the module is reached transitively from the first few
// packages anyway. Fanning the analysis passes out across goroutines
// measured no faster on a 2-core host.
func Run(dir string, patterns []string, checks []*Check) ([]Finding, error) {
	loader, err := NewLoader(dir)
	if err != nil {
		return nil, err
	}
	dirs, err := ExpandPatterns(dir, patterns)
	if err != nil {
		return nil, err
	}
	if checks == nil {
		checks = Checks()
	}
	var all []Finding
	for _, d := range dirs {
		pkg, err := loader.LoadDir(d)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			continue // no non-test Go files
		}
		all = append(all, RunChecks(pkg, checks)...)
	}
	sortFindings(all)
	return all, nil
}

// sortFindings orders findings by file, line, column, check, message.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i].Pos, fs[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if fs[i].Check != fs[j].Check {
			return fs[i].Check < fs[j].Check
		}
		return fs[i].Message < fs[j].Message
	})
}

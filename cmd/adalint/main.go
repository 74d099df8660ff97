// Command adalint runs the project's static-analysis suite over Go
// packages. The driver loads and type-checks every matched package,
// runs the checks over each in turn, and prints the findings as one
// deterministic, position-sorted text report, one per line:
//
//	file:line:col: [check] message
//
// Usage:
//
//	adalint [flags] [packages...]
//
//	-checks name,name   run a subset of checks (default: all)
//	-list               list registered checks and exit
//	-version            print version and exit
//
// Packages follow go-tool patterns relative to the module root:
// "./..." (default), "internal/mat", "internal/...". Directories named
// testdata are skipped by "..." expansion but may be named explicitly,
// which is how the fixture suite is exercised.
//
// Findings are suppressed by a comment on the offending line or the
// line above:
//
//	//lint:ignore <check> <reason>
//
// Suppressions are themselves accounted: a directive that suppresses
// nothing, or names an unregistered check, is reported by the
// unusedignore pseudo-check.
//
// Exit status: 0 clean, 1 usage or load error, 2 findings reported.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"adaptivertc/internal/buildinfo"
	"adaptivertc/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("adalint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	checkList := fs.String("checks", "", "comma-separated subset of checks to run (default: all)")
	list := fs.Bool("list", false, "list registered checks and exit")
	version := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		return 1
	}

	if *version {
		fmt.Fprintln(stdout, buildinfo.Line("adalint"))
		return 0
	}
	if *list {
		for _, c := range lint.Checks() {
			fmt.Fprintf(stdout, "%-14s %s\n", c.Name, c.Doc)
		}
		return 0
	}

	checks := lint.Checks()
	if *checkList != "" {
		checks = checks[:0:0]
		for _, name := range strings.Split(*checkList, ",") {
			name = strings.TrimSpace(name)
			c := lint.CheckByName(name)
			if c == nil {
				fmt.Fprintf(stderr, "adalint: unknown check %q (try -list)\n", name)
				return 1
			}
			checks = append(checks, c)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "adalint: %v\n", err)
		return 1
	}

	findings, err := lint.Run(cwd, patterns, checks)
	if err != nil {
		fmt.Fprintf(stderr, "adalint: %v\n", err)
		return 1
	}
	for _, f := range findings {
		fmt.Fprintln(stdout, f)
	}
	if len(findings) > 0 {
		return 2
	}
	return 0
}

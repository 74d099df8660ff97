package lint_test

import (
	"testing"

	"adaptivertc/internal/lint"
	"adaptivertc/internal/lint/linttest"
)

func TestFloatCompare(t *testing.T) {
	linttest.Run(t, "testdata/floatcompare", lint.FloatCompare)
}

func TestUnseededRand(t *testing.T) {
	linttest.Run(t, "testdata/unseededrand", lint.UnseededRand)
}

func TestUnseededRandMainPackage(t *testing.T) {
	linttest.Run(t, "testdata/unseededmain", lint.UnseededRand)
}

func TestMatAlias(t *testing.T) {
	linttest.Run(t, "testdata/matalias", lint.MatAlias)
}

func TestNakedPanic(t *testing.T) {
	linttest.Run(t, "testdata/nakedpanic", lint.NakedPanic)
}

func TestDroppedErr(t *testing.T) {
	linttest.Run(t, "testdata/droppederr", lint.DroppedErr)
}

func TestCtxLoop(t *testing.T) {
	linttest.Run(t, "testdata/ctxloop", lint.CtxLoop)
}

func TestHTTPServer(t *testing.T) {
	linttest.Run(t, "testdata/httpserver", lint.HTTPServer)
}

func TestClientTimeout(t *testing.T) {
	linttest.Run(t, "testdata/clienttimeout", lint.ClientTimeout)
}

func TestErrCompare(t *testing.T) {
	linttest.Run(t, "testdata/errcompare", lint.ErrCompare)
}

func TestMapOrder(t *testing.T) {
	linttest.Run(t, "testdata/maporder", lint.MapOrder)
}

func TestLockCopy(t *testing.T) {
	linttest.Run(t, "testdata/lockcopy", lint.LockCopy)
}

func TestGoroLeak(t *testing.T) {
	linttest.Run(t, "testdata/goroleak", lint.GoroLeak)
}

// TestFullSuiteOnFixtures runs every registered check over every
// fixture at once: checks must not fire outside their own fixture's
// annotated lines (each fixture's wants only mention its own check, so
// any cross-check finding fails the comparison).
func TestFullSuiteOnFixtures(t *testing.T) {
	for _, dir := range []string{
		"testdata/unseededrand",
		"testdata/matalias",
		"testdata/nakedpanic",
		"testdata/ctxloop",
		"testdata/httpserver",
		"testdata/clienttimeout",
		"testdata/errcompare",
		"testdata/maporder",
		"testdata/lockcopy",
		"testdata/goroleak",
		"testdata/timeafter",
	} {
		linttest.Run(t, dir, lint.Checks()...)
	}
}

func TestSyncRename(t *testing.T) {
	linttest.Run(t, "testdata/syncrename", lint.SyncRename)
}

func TestTimeAfter(t *testing.T) {
	linttest.Run(t, "testdata/timeafter", lint.TimeAfter)
}

//go:build linux

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestExportFailedWriteKeepsPreviousFile overwrites an exported C mode
// table with one whose write fails part-way: the process's file-size
// limit is lowered below the artifact's size, so the write returns
// EFBIG (Go ignores SIGXFSZ). The previous artifact must survive byte
// for byte, with no temporary file left beside it; a write in place
// would have truncated it.
func TestExportFailedWriteKeepsPreviousFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "modes.c")
	if err := runExport([]string{"-o", path}); err != nil {
		t.Fatal(err)
	}
	prev, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	var saved syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &saved); err != nil {
		t.Fatal(err)
	}
	capped := saved
	capped.Cur = uint64(len(prev) / 2)
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &capped); err != nil {
		t.Skipf("cannot lower the file-size limit: %v", err)
	}
	// A different prefix makes the new artifact differ from the old.
	werr := runExport([]string{"-o", path, "-prefix", "other"})
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &saved); err != nil {
		t.Fatalf("restore the file-size limit: %v", err)
	}
	if werr == nil {
		t.Fatal("export under a file-size limit below the artifact succeeded")
	}

	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, prev) {
		t.Fatalf("failed export left %d bytes, want the previous %d bytes intact", len(got), len(prev))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("failed export left %d files in the directory, want 1", len(entries))
	}
}

package chaos

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func writeVia(f *FaultyFS, p string, data []byte) error {
	file, _, err := f.OpenAppend(p)
	if err != nil {
		return err
	}
	if _, err := file.Write(data); err != nil {
		file.Close()
		return err
	}
	if err := file.Sync(); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}

func TestFaultyFSTogglesAndCounts(t *testing.T) {
	dir := t.TempDir()
	f := NewFaultyFS(nil)
	p := filepath.Join(dir, "x")

	if err := writeVia(f, p, []byte("hello")); err != nil {
		t.Fatalf("healthy write failed: %v", err)
	}
	got, err := f.ReadFile(p)
	if err != nil || string(got) != "hello" {
		t.Fatalf("healthy read = %q, %v", got, err)
	}

	f.BreakWrites(nil)
	if err := writeVia(f, p, []byte("nope")); !errors.Is(err, ErrDiskFault) {
		t.Fatalf("broken write err = %v, want ErrDiskFault", err)
	}
	if err := f.MkdirAll(filepath.Join(dir, "sub")); !errors.Is(err, ErrDiskFault) {
		t.Fatalf("broken mkdir err = %v, want ErrDiskFault", err)
	}

	f.BreakReads(os.ErrPermission)
	if _, err := f.ReadFile(p); !errors.Is(err, os.ErrPermission) {
		t.Fatalf("broken read err = %v, want ErrPermission", err)
	}
	if err := f.ReadAt(p, make([]byte, 1), 0); !errors.Is(err, os.ErrPermission) {
		t.Fatalf("broken ReadAt err = %v, want ErrPermission", err)
	}

	f.Heal()
	f.CorruptReads()
	got, err = f.ReadFile(p)
	if err != nil {
		t.Fatalf("corrupt read should succeed: %v", err)
	}
	if string(got) == "hello" {
		t.Fatal("corrupt read returned pristine bytes")
	}
	if got[len(got)-1] != 'o'^0xFF {
		t.Fatalf("corruption should flip the last byte, got %q", got)
	}
	buf := make([]byte, 5)
	if err := f.ReadAt(p, buf, 0); err != nil {
		t.Fatalf("corrupt ReadAt should succeed: %v", err)
	}
	if buf[4] != 'o'^0xFF {
		t.Fatalf("corrupt ReadAt should flip the last byte, got %q", buf)
	}

	f.Heal()
	if got, err = f.ReadFile(p); err != nil || string(got) != "hello" {
		t.Fatalf("healed read = %q, %v", got, err)
	}
	w, r, c := f.Injected()
	if w != 2 || r != 2 || c != 2 {
		t.Fatalf("injected counts = (%d, %d, %d), want (2, 2, 2)", w, r, c)
	}
}

func TestFaultyFSCrashPlan(t *testing.T) {
	dir := t.TempDir()
	t.Run("stop-after-write", func(t *testing.T) {
		f := NewFaultyFS(nil)
		p := filepath.Join(dir, "stop")
		f.SetCrashPlan(CrashPlan{AfterWrites: 2, Mode: CrashStop})
		if err := writeVia(f, p, []byte("one")); err != nil {
			t.Fatalf("write before crash point: %v", err)
		}
		if err := writeVia(f, p, []byte("two")); !errors.Is(err, ErrCrashed) {
			t.Fatalf("write at crash point = %v, want ErrCrashed", err)
		}
		if !f.Crashed() {
			t.Fatal("crash point did not latch")
		}
		// The process is dead: everything fails from here on.
		if err := writeVia(f, p, []byte("three")); !errors.Is(err, ErrCrashed) {
			t.Fatalf("write after crash = %v, want ErrCrashed", err)
		}
		if _, err := f.ReadFile(p); !errors.Is(err, ErrCrashed) {
			t.Fatalf("read after crash = %v, want ErrCrashed", err)
		}
		// The on-disk bytes hold only what preceded the crash point.
		data, err := os.ReadFile(p)
		if err != nil || string(data) != "one" {
			t.Fatalf("on-disk bytes after crash = %q, %v", data, err)
		}
	})
	t.Run("fail-is-transient", func(t *testing.T) {
		f := NewFaultyFS(nil)
		p := filepath.Join(dir, "fail")
		f.SetCrashPlan(CrashPlan{AfterWrites: 1, Mode: CrashFail})
		if err := writeVia(f, p, []byte("lost")); !errors.Is(err, ErrCrashed) {
			t.Fatalf("write at crash point = %v, want ErrCrashed", err)
		}
		if err := writeVia(f, p, []byte("kept")); err != nil {
			t.Fatalf("write after transient crash: %v", err)
		}
		data, err := os.ReadFile(p)
		if err != nil || string(data) != "kept" {
			t.Fatalf("on-disk bytes = %q, %v", data, err)
		}
	})
	t.Run("partial-write", func(t *testing.T) {
		f := NewFaultyFS(nil)
		p := filepath.Join(dir, "partial")
		f.SetCrashPlan(CrashPlan{AfterWrites: 1, Mode: CrashStop, Partial: true})
		if err := writeVia(f, p, []byte("abcdef")); !errors.Is(err, ErrCrashed) {
			t.Fatalf("write at crash point = %v, want ErrCrashed", err)
		}
		data, err := os.ReadFile(p)
		if err != nil || string(data) != "abc" {
			t.Fatalf("torn prefix = %q, %v, want first half", data, err)
		}
	})
	t.Run("bit-flip", func(t *testing.T) {
		f := NewFaultyFS(nil)
		p := filepath.Join(dir, "flip")
		f.SetCrashPlan(CrashPlan{AfterWrites: 1, Mode: CrashStop, BitFlip: true})
		if err := writeVia(f, p, []byte("abc")); !errors.Is(err, ErrCrashed) {
			t.Fatalf("write at crash point = %v, want ErrCrashed", err)
		}
		data, err := os.ReadFile(p)
		if err != nil || string(data) != "ab"+string([]byte{'c' ^ 0xFF}) {
			t.Fatalf("flipped bytes = %q, %v", data, err)
		}
	})
	t.Run("stop-after-sync", func(t *testing.T) {
		f := NewFaultyFS(nil)
		p := filepath.Join(dir, "sync")
		f.SetCrashPlan(CrashPlan{AfterSyncs: 1, Mode: CrashStop})
		if err := writeVia(f, p, []byte("w")); !errors.Is(err, ErrCrashed) {
			t.Fatalf("sync at crash point = %v, want ErrCrashed", err)
		}
		if w, s := f.Counts(); w != 1 || s != 1 {
			t.Fatalf("counts = (%d, %d), want (1, 1)", w, s)
		}
	})
}

func TestWorkerFaultsWindowAndDeterminism(t *testing.T) {
	draw := func(seed int64, n int) []bool {
		w := NewWorkerFaults(seed)
		w.Configure(0.5, 0, 0)
		w.Open()
		hook := w.Hook()
		out := make([]bool, n)
		for i := range out {
			out[i] = hook(context.Background()) != nil
		}
		return out
	}
	a, b := draw(7, 64), draw(7, 64)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs between equal seeds", i)
		}
	}

	w := NewWorkerFaults(7)
	w.Configure(1, 0, 0) // every certification fails while open
	hook := w.Hook()
	if err := hook(context.Background()); err != nil {
		t.Fatalf("closed window injected a fault: %v", err)
	}
	w.Open()
	if err := hook(context.Background()); !errors.Is(err, ErrInjectedWorker) {
		t.Fatalf("open window err = %v, want ErrInjectedWorker", err)
	}
	w.Close()
	if err := hook(context.Background()); err != nil {
		t.Fatalf("closed window injected a fault: %v", err)
	}
	if failed, _ := w.Injected(); failed != 1 {
		t.Fatalf("injected = %d, want 1", failed)
	}
}

func TestWorkerFaultsSlowRespectsContext(t *testing.T) {
	w := NewWorkerFaults(1)
	w.Configure(0, 1, time.Hour) // every certification stalls
	w.Open()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := w.Hook()(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("slow fault ignored context cancellation")
	}
}

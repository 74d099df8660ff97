// Command jsrtool computes certified bounds on the joint spectral
// radius of a finite matrix set — the stability test of the paper's §V
// — for matrices supplied as JSON.
//
// Input format (stdin or -in file): a JSON array of matrices, each a
// row-major array of rows:
//
//	[ [[0.5, 1], [0, 0.3]],
//	  [[0.2, 0], [0.4, 0.6]] ]
//
// Usage:
//
//	jsrtool [-in matrices.json] [-delta 1e-3] [-depth 30] [-brute 6] [-raw]
//	        [-workers N] [-timeout 30s] [-checkpoint path [-resume]] [-version]
//
// Long-running searches are interruptible: -timeout caps wall-clock
// time, and Ctrl-C (SIGINT) or SIGTERM stops the search at the next
// level boundary. Either way the tool prints the valid best-so-far
// bracket and exits 5. With -checkpoint the Gripenberg frontier is
// snapshotted atomically at every level boundary, and -resume restarts
// from the snapshot — the resumed run finishes with bounds bit-identical
// to an uninterrupted one. A run that completes removes its checkpoint.
//
// Exit status: 0 when stability is certified (upper bound < 1), 3 when
// instability is certified (lower bound ≥ 1), 4 when undecided at the
// requested accuracy, 5 when interrupted (deadline or signal; the
// printed bracket is valid but the search did not finish), 2 on errors.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"adaptivertc/internal/buildinfo"
	"adaptivertc/internal/checkpoint"
	"adaptivertc/internal/inputhash"
	"adaptivertc/internal/jsr"
	"adaptivertc/internal/mat"
)

// ckptKind/ckptVersion identify jsrtool's checkpoint format. Version 2
// snapshots name the invariant block they were taken in
// (GripenbergState.Block); a checkpoint of another version is refused,
// with no migration.
const (
	ckptKind    = "jsrtool/gripenberg"
	ckptVersion = 2
)

// ckptPayload is what jsrtool persists: the Gripenberg search state
// plus everything needed to refuse a resume against different inputs.
// Depth (the -depth flag) is deliberately not pinned: resuming with a
// larger -depth is the supported way to extend an exhausted search.
type ckptPayload struct {
	SetHash inputhash.Sum // content hash of the input matrices
	Delta   float64
	Brute   int
	Raw     bool
	State   jsr.GripenbergState
}

func main() {
	os.Exit(run())
}

func run() int {
	in := flag.String("in", "", "input file (default: stdin)")
	delta := flag.Float64("delta", 1e-3, "Gripenberg target accuracy (shared default with adactl)")
	depth := flag.Int("depth", 30, "maximum product length")
	brute := flag.Int("brute", 6, "brute-force enumeration depth")
	raw := flag.Bool("raw", false, "skip Lyapunov preconditioning")
	workers := flag.Int("workers", 0, "JSR worker goroutines (0 = all cores); bounds are identical for every value")
	timeout := flag.Duration("timeout", 0, "wall-clock budget; on expiry print the best-so-far bracket and exit 5 (0 = none)")
	ckptPath := flag.String("checkpoint", "", "snapshot the search state to this file at every level boundary")
	resume := flag.Bool("resume", false, "resume from the -checkpoint file instead of starting fresh")
	version := flag.Bool("version", false, "print build/version information and exit")
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Line("jsrtool"))
		return 0
	}

	set, err := readSet(*in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jsrtool:", err)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opt := jsr.GripenbergOptions{Delta: *delta, MaxDepth: *depth, Workers: *workers}
	hash := inputhash.SetHash(set, *raw)
	if *resume {
		if *ckptPath == "" {
			fmt.Fprintln(os.Stderr, "jsrtool: -resume requires -checkpoint")
			return 2
		}
		var p ckptPayload
		if err := checkpoint.Load(*ckptPath, ckptKind, ckptVersion, &p); err != nil {
			fmt.Fprintln(os.Stderr, "jsrtool:", err)
			return 2
		}
		if p.SetHash != hash {
			fmt.Fprintln(os.Stderr, "jsrtool: checkpoint was taken for a different matrix set (or -raw mode)")
			return 2
		}
		//lint:ignore floatcompare exact-bits roundtrip check: the checkpoint stores the flag value verbatim
		if p.Delta != *delta || p.Brute != *brute || p.Raw != *raw {
			fmt.Fprintf(os.Stderr, "jsrtool: checkpoint parameters differ (delta=%g brute=%d raw=%v); rerun with matching flags\n",
				p.Delta, p.Brute, p.Raw)
			return 2
		}
		opt.Resume = &p.State
	}
	if *ckptPath != "" {
		opt.Snapshot = func(st jsr.GripenbergState) error {
			return checkpoint.Save(*ckptPath, ckptKind, ckptVersion, ckptPayload{
				SetHash: hash, Delta: *delta, Brute: *brute, Raw: *raw, State: st,
			})
		}
	}

	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var bounds jsr.Bounds
	var serr error
	if *raw {
		bounds, serr = jsr.EstimateRawCtx(ctx, set, *brute, opt)
	} else {
		bounds, serr = jsr.EstimateCtx(ctx, set, *brute, opt)
	}
	interrupted := errors.Is(serr, jsr.ErrDeadline)
	if serr != nil && !interrupted && !errors.Is(serr, jsr.ErrBudget) {
		fmt.Fprintln(os.Stderr, "jsrtool:", serr)
		return 2
	}

	fmt.Printf("matrices: %d  dimension: %d\n", len(set), set[0].Rows())
	fmt.Printf("JSR in %s (gap %.3g)\n", bounds, bounds.Gap())
	switch {
	case errors.Is(serr, jsr.ErrDepthCap):
		fmt.Printf("stopped: depth cap (-depth %d) reached before delta %g\n", *depth, *delta)
	case errors.Is(serr, jsr.ErrNodeBudget):
		fmt.Printf("stopped: node budget spent before delta %g\n", *delta)
	}
	if interrupted {
		msg := "deadline"
		if errors.Is(serr, context.Canceled) {
			msg = "signal"
		}
		fmt.Printf("interrupted (%s): bracket is valid best-so-far", msg)
		if *ckptPath != "" {
			fmt.Printf("; resume with -resume -checkpoint %s", *ckptPath)
		}
		fmt.Println()
		return 5
	}
	// The search ran to a verdict — stable, unstable, or undecided all
	// count as completed; a stale snapshot would only invite a confusing
	// -resume later.
	if *ckptPath != "" {
		if err := os.Remove(*ckptPath); err != nil && !errors.Is(err, os.ErrNotExist) {
			fmt.Fprintln(os.Stderr, "jsrtool: removing checkpoint:", err)
		}
	}
	switch {
	case bounds.CertifiesStable():
		fmt.Println("verdict: STABLE under arbitrary switching (UB < 1)")
	case bounds.CertifiesUnstable():
		fmt.Println("verdict: UNSTABLE (LB ≥ 1)")
		return 3
	default:
		fmt.Println("verdict: undecided at this accuracy (1 lies inside the bracket)")
		return 4
	}
	return 0
}

func readSet(path string) ([]*mat.Dense, error) {
	var r io.Reader = os.Stdin
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	var rows [][][]float64
	if err := json.NewDecoder(r).Decode(&rows); err != nil {
		return nil, fmt.Errorf("parsing input: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("no matrices in input")
	}
	set := make([]*mat.Dense, len(rows))
	for i, m := range rows {
		set[i] = mat.FromRows(m)
	}
	return set, nil
}

package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"adaptivertc/internal/control"
	"adaptivertc/internal/jsr"
	"adaptivertc/internal/mat"
)

func certOpts() jsr.GripenbergOptions {
	return jsr.GripenbergOptions{Delta: 0.02, MaxDepth: 15}
}

func TestCertifyStableDesign(t *testing.T) {
	d := testDesign(t)
	cert, err := d.CertifyCtx(context.Background(), 4, certOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !cert.Stable() || cert.Unstable() || cert.Undecided() {
		t.Fatalf("verdicts wrong: %+v", cert.Bounds)
	}
	if cert.Timing.T != d.Timing.T {
		t.Fatal("timing not recorded")
	}
	// The witness pattern consists of intervals from H.
	hs := d.Timing.Intervals()
	for _, h := range cert.WorstPattern {
		found := false
		for _, want := range hs {
			if math.Abs(h-want) < 1e-12 {
				found = true
			}
		}
		if !found {
			t.Fatalf("worst pattern %v contains interval outside H %v", cert.WorstPattern, hs)
		}
	}
	if len(cert.WorstPattern) == 0 {
		t.Fatal("no worst pattern recorded")
	}
}

func TestCertificateCoversDeployment(t *testing.T) {
	d := testDesign(t) // T=0.1, Ns=5, Rmax=0.16 → H up to 0.16
	cert, err := d.CertifyCtx(context.Background(), 4, certOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !cert.CoversDeployment(0.15) {
		t.Fatal("smaller actual Rmax must be covered")
	}
	if cert.CoversDeployment(0.18) {
		t.Fatal("larger actual Rmax must not be covered")
	}
}

func TestCertificateReport(t *testing.T) {
	d := testDesign(t)
	cert, err := d.CertifyCtx(context.Background(), 4, certOpts())
	if err != nil {
		t.Fatal(err)
	}
	rep := cert.Report()
	for _, want := range []string{"JSR bracket", "STABLE", "intervals H", "worst switching pattern"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestCertificateUnstableVerdict(t *testing.T) {
	// A deliberately unstable "design": positive feedback static gain.
	plant := fullStatePlant(t)
	tm := MustTiming(0.1, 2, 0.01, 0.15)
	bad := staticUnstableGain()
	d, err := NewDesign(plant, tm, FixedDesigner(bad))
	if err != nil {
		t.Fatal(err)
	}
	cert, err := d.CertifyCtx(context.Background(), 3, certOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !cert.Unstable() {
		t.Fatalf("positive-feedback loop not flagged unstable: %v", cert.Bounds)
	}
	if cert.CoversDeployment(0.1) {
		t.Fatal("unstable certificate must not cover any deployment")
	}
	if !strings.Contains(cert.Report(), "UNSTABLE") {
		t.Fatal("report must flag instability")
	}
}

// staticUnstableGain returns a wrong-sign gain that destabilizes the
// test plant.
func staticUnstableGain() *control.StateSpace {
	return control.Static(mat.RowVec(-50, -20))
}

package core

import (
	"context"
	"math"
	"testing"
)

func TestQuantizePreservesStabilityAtReasonableWidths(t *testing.T) {
	d := testDesign(t)
	q, err := d.Quantize(16)
	if err != nil {
		t.Fatal(err)
	}
	if e := d.MaxQuantizationError(q); e > math.Pow(2, -17)+1e-15 {
		t.Fatalf("quantization error %v exceeds step/2", e)
	}
	cert, err := q.CertifyCtx(context.Background(), 4, certOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !cert.Stable() {
		t.Fatalf("16-bit quantized design lost stability: %v", cert.Bounds)
	}
}

func TestQuantizeCoarseDegradesBounds(t *testing.T) {
	d := testDesign(t)
	fine, err := d.Quantize(20)
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := d.Quantize(3)
	if err != nil {
		t.Fatal(err)
	}
	// Coarse parameters must differ more from the original.
	if d.MaxQuantizationError(coarse) <= d.MaxQuantizationError(fine) {
		t.Fatal("coarser quantization did not increase parameter error")
	}
	// The runtime still executes (no panics), whatever the performance.
	loop, err := NewLoop(coarse, []float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 10; k++ {
		loop.Step(k % coarse.NumModes())
	}
}

func TestQuantizeValidation(t *testing.T) {
	d := testDesign(t)
	if _, err := d.Quantize(0); err == nil {
		t.Fatal("0 bits accepted")
	}
	if _, err := d.Quantize(53); err == nil {
		t.Fatal("53 bits accepted")
	}
}

func TestQuantizeIdempotentOnGrid(t *testing.T) {
	d := testDesign(t)
	q1, err := d.Quantize(10)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := q1.Quantize(10)
	if err != nil {
		t.Fatal(err)
	}
	if e := q1.MaxQuantizationError(q2); e != 0 {
		t.Fatalf("re-quantization changed parameters by %v", e)
	}
}

package plants

import (
	"math"
	"math/cmplx"
	"testing"
)

func TestUnstableIsUnstableAndControllable(t *testing.T) {
	p := Unstable()
	stable, err := p.IsStable()
	if err != nil {
		t.Fatal(err)
	}
	if stable {
		t.Fatal("Table I plant must be open-loop unstable")
	}
	if !p.IsControllable() {
		t.Fatal("Table I plant must be controllable")
	}
	if !p.IsObservable() {
		t.Fatal("Table I plant must be observable")
	}
	if p.InputDim() != 1 || p.OutputDim() != 1 {
		t.Fatal("Table I plant must be SISO")
	}
	// Unstable pole around +3.6 rad/s: slow relative to T = 10 ms.
	poles, err := p.Poles()
	if err != nil {
		t.Fatal(err)
	}
	maxRe := math.Inf(-1)
	for _, pl := range poles {
		if real(pl) > maxRe {
			maxRe = real(pl)
		}
	}
	if maxRe < 1 || maxRe > 20 {
		t.Fatalf("unstable pole at %v rad/s is out of the intended range", maxRe)
	}
}

func TestPMSMStructure(t *testing.T) {
	p := PMSM(DefaultPMSMParams())
	if p.StateDim() != 3 || p.InputDim() != 2 || p.OutputDim() != 3 {
		t.Fatalf("PMSM dims = (%d,%d,%d)", p.StateDim(), p.InputDim(), p.OutputDim())
	}
	stable, err := p.IsStable()
	if err != nil {
		t.Fatal(err)
	}
	if !stable {
		t.Fatal("PMSM linearization should be open-loop stable (friction + resistance)")
	}
	if !p.IsControllable() {
		t.Fatal("PMSM must be controllable")
	}
	// Electrical modes of a few hundred rad/s justify T = 50 µs.
	poles, err := p.Poles()
	if err != nil {
		t.Fatal(err)
	}
	fastest := 0.0
	for _, pl := range poles {
		if m := cmplx.Abs(pl); m > fastest {
			fastest = m
		}
	}
	if fastest < 100 || fastest > 1e5 {
		t.Fatalf("fastest PMSM mode %v rad/s out of intended range", fastest)
	}
	// T = 50 µs must sample the fastest mode comfortably: ω·T << 1.
	if fastest*50e-6 > 0.5 {
		t.Fatalf("fastest mode %v too fast for T = 50 µs", fastest)
	}
}

func TestPMSMCurrentSensedObservable(t *testing.T) {
	p := PMSMCurrentSensed(DefaultPMSMParams())
	if p.OutputDim() != 2 {
		t.Fatalf("output dim = %d", p.OutputDim())
	}
	if !p.IsObservable() {
		t.Fatal("speed must be observable from the currents (back-EMF coupling)")
	}
}

func TestTextbookPlants(t *testing.T) {
	p := DoubleIntegratorFullState()
	if s, _ := p.IsStable(); s {
		t.Fatal("double integrator reported stable")
	}
	if !p.IsControllable() {
		t.Fatal("double integrator must be controllable")
	}
	if p.OutputDim() != 2 {
		t.Fatal("full-state double integrator output dim")
	}
}

package api

import (
	"fmt"

	"adaptivertc/internal/control"
	"adaptivertc/internal/core"
	"adaptivertc/internal/lti"
	"adaptivertc/internal/mat"
	"adaptivertc/internal/plants"
)

// BuildScenario constructs one of the named demo designs. It is the
// single definition shared by the adactl export and certify
// commands and the certification service's scenario requests, so a
// scenario certified over HTTP is exactly the design the CLI exports.
func BuildScenario(scenario string, rmaxFactor float64, ns int) (*core.Design, error) {
	var (
		plant *lti.System
		T     float64
		des   core.Designer
	)
	switch scenario {
	case "pmsm":
		plant = plants.PMSM(plants.DefaultPMSMParams())
		T = 50e-6
		w := control.LQRWeights{Q: mat.Diag(1, 1, 5), R: mat.Scale(0.01, mat.Eye(2))}
		des = func(h float64) (*control.StateSpace, error) { return control.LQGFullInfo(plant, w, h) }
	case "unstable":
		plant = plants.Unstable()
		T = 0.010
		nominal, err := control.TunePI(plant, T, control.PITuneOptions{})
		if err != nil {
			return nil, err
		}
		des = func(h float64) (*control.StateSpace, error) {
			return control.PIGains{KP: nominal.KP, KI: nominal.KI, H: h}.Controller(), nil
		}
	case "quickstart":
		plant = plants.DoubleIntegratorFullState()
		T = 0.020
		w := control.LQRWeights{Q: mat.Eye(2), R: mat.Diag(0.1)}
		des = func(h float64) (*control.StateSpace, error) { return control.LQGFullInfo(plant, w, h) }
	default:
		return nil, fmt.Errorf("unknown scenario %q", scenario)
	}
	tm, err := core.NewTiming(T, ns, T/10, rmaxFactor*T)
	if err != nil {
		return nil, err
	}
	return core.NewDesign(plant, tm, des)
}

package experiments

import (
	"context"
	"fmt"
	"strings"

	"adaptivertc/internal/control"
	"adaptivertc/internal/core"
	"adaptivertc/internal/jsr"
	"adaptivertc/internal/plants"
)

// QuantizeRow reports the stability certificate of the PMSM adaptive
// design after its controller table is rounded to fixed point with the
// given number of fractional bits — answering the deployment question
// "how wide must the table entries be?".
type QuantizeRow struct {
	Bits     int
	MaxErr   float64 // largest parameter perturbation
	Bounds   jsr.Bounds
	Stable   bool
	Budgeted bool // bracket looser than requested
}

// QuantizeSweepCtx certifies the PMSM design (Rmax = 1.6·T, Ts = T/5)
// across fixed-point widths. The context bounds each width's JSR
// search; on expiry the partial sweep is discarded and the error wraps
// jsr.ErrDeadline.
func QuantizeSweepCtx(ctx context.Context, bits []int, opt Options) ([]QuantizeRow, error) {
	opt = opt.Defaults()
	plant := plants.PMSM(plants.DefaultPMSMParams())
	w := pmsmWeights()
	tm, err := core.NewTiming(table2T, 5, table2T/10, 1.6*table2T)
	if err != nil {
		return nil, err
	}
	d, err := core.NewDesign(plant, tm, func(h float64) (*control.StateSpace, error) {
		return control.LQGFullInfo(plant, w, h)
	})
	if err != nil {
		return nil, err
	}
	rows := make([]QuantizeRow, 0, len(bits))
	for _, b := range bits {
		q, err := d.Quantize(b)
		if err != nil {
			return nil, err
		}
		cert, err := q.CertifyCtx(ctx, opt.BruteLen, jsr.GripenbergOptions{Delta: opt.Delta, MaxDepth: 25, Workers: opt.Workers})
		if err != nil {
			return nil, err
		}
		rows = append(rows, QuantizeRow{
			Bits:     b,
			MaxErr:   d.MaxQuantizationError(q),
			Bounds:   cert.Bounds,
			Stable:   cert.Stable(),
			Budgeted: cert.BudgetHit,
		})
	}
	return rows, nil
}

// QuantizeString renders the sweep.
func QuantizeString(rows []QuantizeRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-14s %-24s %-8s\n", "bits", "max |Δparam|", "JSR [LB,UB]", "stable")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8d %-14.3e %-24s %-8v\n", r.Bits, r.MaxErr, r.Bounds.String(), r.Stable)
	}
	return b.String()
}

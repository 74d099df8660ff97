package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
)

// certificate mirrors the wire form of a certification response. Only
// the fields the checks read are declared; unknown fields are allowed,
// so an additive change to the response does not fail the benchmark.
type certificate struct {
	Verdict     string  `json:"verdict"`
	Lower       float64 `json:"lower"`
	Upper       float64 `json:"upper"`
	WitnessWord []int   `json:"witness_word"`
	Matrices    int     `json:"matrices"`
	Dim         int     `json:"dim"`
}

// checkCertificate decodes a response body and checks it against the
// request it answers (k matrices of dimension n): a finite bracket with
// Lower ≤ Upper, the verdict the bounds imply, and shape and witness
// indices that match the request.
func checkCertificate(body []byte, k, n int) (certificate, error) {
	var c certificate
	if err := json.Unmarshal(body, &c); err != nil {
		return c, fmt.Errorf("decoding certificate: %w", err)
	}
	switch {
	case math.IsNaN(c.Lower) || math.IsInf(c.Lower, 0) || math.IsNaN(c.Upper) || math.IsInf(c.Upper, 0):
		return c, fmt.Errorf("bracket [%g, %g] is not finite", c.Lower, c.Upper)
	case c.Lower < 0 || c.Lower > c.Upper:
		return c, fmt.Errorf("bracket [%g, %g] is not ordered", c.Lower, c.Upper)
	case c.Verdict != verdictFor(c.Lower, c.Upper):
		return c, fmt.Errorf("verdict %q contradicts bracket [%g, %g]", c.Verdict, c.Lower, c.Upper)
	case c.Matrices != k || c.Dim != n:
		return c, fmt.Errorf("certificate is for %d matrices of dimension %d, request has %d of dimension %d", c.Matrices, c.Dim, k, n)
	case len(c.WitnessWord) == 0:
		return c, errors.New("certificate has no witness word")
	}
	for _, w := range c.WitnessWord {
		if w < 0 || w >= k {
			return c, fmt.Errorf("witness index %d out of range [0,%d)", w, k)
		}
	}
	return c, nil
}

// verdictFor is the verdict a bracket implies: Upper < 1 proves
// stability, Lower ≥ 1 proves instability.
func verdictFor(lower, upper float64) string {
	switch {
	case upper < 1:
		return "stable"
	case lower >= 1:
		return "unstable"
	default:
		return "undecided"
	}
}

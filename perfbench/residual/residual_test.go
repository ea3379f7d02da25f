package residual

import (
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/stencil"
)

// basin returns a small flat basin's operator and a smooth field x with its
// exact right-hand side b = A·x computed by the operator's own Apply.
func basin(t *testing.T) (*stencil.Operator, []float64, []float64) {
	t.Helper()
	g := grid.NewFlatBasin(24, 16, 4000, 1e5, 1e5)
	op := stencil.Assemble(g, stencil.PhiFromTimeStep(1920))
	x := make([]float64, g.N())
	for k := range x {
		i, j := float64(k%g.Nx), float64(k/g.Nx)
		x[k] = math.Sin(0.3*i+0.1) * math.Cos(0.2*j)
	}
	b := make([]float64, g.N())
	op.Apply(b, x)
	return op, b, x
}

func TestRelativeExactSolutionAtRoundOff(t *testing.T) {
	op, b, x := basin(t)
	if r := Relative(op, b, x); r > 1e-14 {
		t.Fatalf("residual of the exact solution = %g, want round-off (≤ 1e-14)", r)
	}
}

func TestRelativeDetectsPerturbedSolution(t *testing.T) {
	op, b, x := basin(t)
	k := 8*op.Nx + 11 // an interior ocean point
	if !op.Mask[k] {
		t.Fatalf("point %d is land in the flat basin", k)
	}
	y := append([]float64(nil), x...)
	y[k] += 1e-6
	if r := Relative(op, b, y); r < 1e-9 {
		t.Fatalf("residual of a perturbed solution = %g, want well above round-off", r)
	}
}

func TestScaledAgreesWithUnscaledOnUniformDiagonal(t *testing.T) {
	op, b, x := basin(t)
	y := append([]float64(nil), x...)
	k := 8*op.Nx + 11
	y[k] += 1e-6
	// The flat basin's interior diagonal is uniform, so weighting changes
	// the norms only through the boundary rows: same order of magnitude.
	r, rs := Relative(op, b, y), ScaledRelative(op, b, y)
	if rs <= 0 || rs > 10*r || r > 10*rs {
		t.Fatalf("scaled residual %g far from unscaled %g", rs, r)
	}
	if d := ScaledDistance(op, x, x); d != 0 {
		t.Fatalf("ScaledDistance(x, x) = %g, want 0", d)
	}
	for k := range y {
		y[k] = x[k] * (1 + 1e-8)
	}
	if d := ScaledDistance(op, y, x); math.Abs(d-1e-8) > 1e-12 {
		t.Fatalf("ScaledDistance of a 1e-8 scaling = %g, want 1e-8", d)
	}
}

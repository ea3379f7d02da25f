// Package residual checks barotropic solutions independently of the
// solvers: it recomputes A·x row by row from the assembled operator's
// nine-point coefficients (stencil.Operator.Row) in its own loop over the
// global grid, so a fault in the rank-local kernels, the halo exchange or
// the gather that the solvers share cannot also hide in the check.
package residual

import (
	"math"

	"repro/internal/stencil"
)

// offsets lists the (di, dj) neighbour of each Row coefficient, in Row's
// [SW, S, SE, W, C, E, NW, N, NE] order.
var offsets = [9][2]int{
	{-1, -1}, {0, -1}, {1, -1},
	{-1, 0}, {0, 0}, {1, 0},
	{-1, 1}, {0, 1}, {1, 1},
}

// Relative returns ‖b − A·x‖ / ‖b‖ over the operator's ocean points (land
// rows are identity rows the solvers restore exactly and are not solved
// for). It returns +Inf when b vanishes on the ocean but the residual does
// not, and 0 when both vanish.
func Relative(op *stencil.Operator, b, x []float64) float64 {
	return relative(op, b, x, false)
}

// ScaledRelative is Relative in the norm weighted by D^(−1/2), D = diag(A):
// ‖D^(−1/2)(b − A·x)‖ / ‖D^(−1/2)·b‖. Two solutions of one system whose
// scaled residuals are r1 and r2 differ, in ScaledDistance, by at most
// κ·(r1 + r2), κ the condition number of D^(−1/2)·A·D^(−1/2) — the
// spectrum a Lanczos estimate of the diagonally preconditioned operator
// brackets.
func ScaledRelative(op *stencil.Operator, b, x []float64) float64 {
	return relative(op, b, x, true)
}

func relative(op *stencil.Operator, b, x []float64, scaled bool) float64 {
	var rr, bb float64
	for j := 0; j < op.Ny; j++ {
		for i := 0; i < op.Nx; i++ {
			k := j*op.Nx + i
			if !op.Mask[k] {
				continue
			}
			row := op.Row(i, j)
			var ax float64
			for c, o := range offsets {
				if row[c] == 0 {
					continue
				}
				ax += row[c] * x[(j+o[1])*op.Nx+i+o[0]]
			}
			r, bk := b[k]-ax, b[k]
			if scaled {
				r /= math.Sqrt(row[4])
				bk /= math.Sqrt(row[4])
			}
			rr += r * r
			bb += bk * bk
		}
	}
	switch {
	case bb > 0:
		return math.Sqrt(rr / bb)
	case rr > 0:
		return math.Inf(1)
	}
	return 0
}

// ScaledDistance returns ‖D^(1/2)(x − y)‖ / ‖D^(1/2)·y‖ over the
// operator's ocean points, D = diag(A): the relative disagreement of two
// solutions of one system in the norm ScaledRelative's bound speaks of.
func ScaledDistance(op *stencil.Operator, x, y []float64) float64 {
	var dd, yy float64
	for k, ocean := range op.Mask {
		if ocean {
			w := math.Sqrt(op.AC[k])
			d, yk := w*(x[k]-y[k]), w*y[k]
			dd += d * d
			yy += yk * yk
		}
	}
	if yy == 0 {
		return math.Sqrt(dd)
	}
	return math.Sqrt(dd / yy)
}

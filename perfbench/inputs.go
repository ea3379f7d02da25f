package main

import (
	"math"
	"time"

	"repro/internal/comm"
	"repro/internal/decomp"
	"repro/internal/grid"
	"repro/internal/stencil"
)

// rng is a splitmix64 stream: every input of a run derives from --seed
// through it, so one seed always gives the same inputs.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float returns a uniform draw in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform draw in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// newRNG derives an independent stream from a seed and a stream label.
func newRNG(seed int64, stream uint64) *rng {
	r := rng(uint64(seed)*0xD1B54A32D192ED03 ^ stream*0x9E3779B97F4A7C15)
	r.next()
	return &r
}

// rhs returns b = A·x for x = field(g, r, amp).
func rhs(g *grid.Grid, op *stencil.Operator, r *rng, amp float64) []float64 {
	return apply(op, field(g, r, amp))
}

// apply returns b = A·x with land entries zero.
func apply(op *stencil.Operator, x []float64) []float64 {
	b := make([]float64, len(x))
	op.Apply(b, x)
	for i, ocean := range op.Mask {
		if !ocean {
			b[i] = 0
		}
	}
	return b
}

// field returns the sea-surface-height-like field
//
//	x = 0.6 sin 2λ cos 3φ + 0.3 cos(5λ+1) sin 2φ + 0.1 sin 11λ sin(7φ+0.5)
//	    + amp · Σ_{m<4} a_m sin(k_m λ + p_m) cos(l_m φ + q_m)
//
// on ocean points (λ, φ longitude and latitude in radians), with the four
// seeded modes' wavenumbers k_m, l_m in 3..14, weights a_m and phases drawn
// from r. Land entries are zero.
func field(g *grid.Grid, r *rng, amp float64) []float64 {
	var k, l, a, p, q [4]float64
	for m := range k {
		k[m], l[m] = float64(3+r.intn(12)), float64(3+r.intn(12))
		a[m], p[m], q[m] = r.float(), 2*math.Pi*r.float(), 2*math.Pi*r.float()
	}
	x := make([]float64, g.N())
	for i, ocean := range g.Mask {
		if !ocean {
			continue
		}
		lon, lat := g.TLon[i]*math.Pi/180, g.TLat[i]*math.Pi/180
		v := 0.6*math.Sin(2*lon)*math.Cos(3*lat) +
			0.3*math.Cos(5*lon+1)*math.Sin(2*lat) +
			0.1*math.Sin(11*lon)*math.Sin(7*lat+0.5)
		for m := range k {
			v += amp * a[m] * math.Sin(k[m]*lon+p[m]) * math.Cos(l[m]*lat+q[m])
		}
		x[i] = v
	}
	return x
}

// probeSink keeps the probed kernel's result live.
var probeSink float64

// probeApply times one Local.ApplyAndMaskedDot on the ocean block of d
// with the most ocean points. It returns the median time per call in µs
// and the bandwidth computed from the arrays the call must stream (four
// coefficient arrays, x and y at 8 bytes, the mask at 1 byte per point).
func probeApply(d *decomp.Decomposition, op *stencil.Operator) (us, gbs float64) {
	best, most := -1, -1
	for _, id := range d.OceanBlocks {
		b := &d.Blocks[id]
		n := 0
		for j := b.Y0; j < b.Y0+b.NyI; j++ {
			for i := b.X0; i < b.X0+b.NxI; i++ {
				if d.G.IsOcean(i, j) {
					n++
				}
			}
		}
		if n > most {
			best, most = id, n
		}
	}
	loc := d.LocalOperator(op, &d.Blocks[best])
	x := make([]float64, loc.NxP*loc.NyP)
	y := make([]float64, len(x))
	r := newRNG(1, 99)
	for i := range x {
		x[i] = r.float()
	}
	calls := max(1, 4_000_000/len(x))
	var per []float64
	for rep := 0; rep < 7; rep++ {
		t0 := time.Now()
		for c := 0; c < calls; c++ {
			probeSink += loc.ApplyAndMaskedDot(y, x)
		}
		per = append(per, ms(time.Since(t0))*1e3/float64(calls))
	}
	us = median(per)
	bytes := float64(loc.InteriorLen()) * (6*8 + 1)
	return us, bytes / (us * 1e-6) / 1e9
}

// probeComm times one Rank.Exchange of a one-level field and one 2-wide
// Rank.AllReduce across every rank of w, called through World.Run; each is
// the median over repetitions of (time of a run making n calls − time of an
// empty run) / n, in µs.
func probeComm(w *comm.World) (exchangeUS, allreduceUS float64) {
	d := w.D
	const n = 20
	timeRun := func(body func(r *comm.Rank, fields [][]float64, vals []float64)) float64 {
		var per []float64
		for rep := 0; rep < 5; rep++ {
			t0 := time.Now()
			w.Run(func(r *comm.Rank) {
				fields := make([][]float64, len(r.Blocks))
				for i, b := range r.Blocks {
					nxp, nyp := d.PaddedDims(b)
					fields[i] = make([]float64, nxp*nyp)
				}
				body(r, fields, []float64{1, float64(r.ID)})
			})
			per = append(per, ms(time.Since(t0))*1e3)
		}
		return median(per)
	}
	empty := timeRun(func(*comm.Rank, [][]float64, []float64) {})
	exch := timeRun(func(r *comm.Rank, f [][]float64, _ []float64) {
		for i := 0; i < n; i++ {
			r.Exchange(f)
		}
	})
	red := timeRun(func(r *comm.Rank, _ [][]float64, v []float64) {
		for i := 0; i < n; i++ {
			r.AllReduce(v)
		}
	})
	return max(0, exch-empty) / n, max(0, red-empty) / n
}

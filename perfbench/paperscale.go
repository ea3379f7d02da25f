package main

import (
	"context"
	"fmt"
	"math"
	"time"

	pop "repro"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/grid"
	"repro/internal/perfmodel"
	"repro/internal/stencil"
	"repro/perfbench/residual"
)

// paper_scale: three cold solves of one seeded RHS per op on the 1° grid
// split into paperRanks virtual ranks, priced on Yellowstone.
const (
	paperRanks = 368
	paperTau   = 1920 // s, the 1° barotropic step
	// rhsAmp scales the seeded modes added to the fixed large-scale field:
	// small enough that every seed needs the same iterations, so the seed
	// changes the inputs without changing the work.
	rhsAmp = 0.01
	// resFactor bounds every solve's independently computed relative
	// residual at resFactor·tol.
	resFactor = 10
)

type psSolver struct {
	name    string
	method  core.Method
	precond core.PrecondType
	sess    *core.Session
	x       []float64 // copy of the last solution
	res     core.Result
	err     error
	// agree holds the last op's scaled distance from the ChronGear
	// solution and the bound it was checked against.
	agree [2]float64
}

type paperScale struct {
	seed int64
	mach *perfmodel.Machine
	g    *grid.Grid
	op   *stencil.Operator
	d    *decomp.Decomposition
	b    []float64
	s    []*psSolver
	// kappa is the spectral condition estimate μ/ν of the diagonally
	// preconditioned operator (the s-step session's Lanczos interval).
	kappa float64
}

func newPaperScale(seed int64) *paperScale {
	return &paperScale{seed: seed, mach: perfmodel.Yellowstone().WithSeed(uint64(seed))}
}

func (w *paperScale) setup(tr *tracer) error {
	root := tr.begin("setup", -1, -1)
	defer tr.end(root)
	var err error
	tr.do("grid.generate", root, -1, func() { w.g, err = pop.NewGrid(pop.GridOneDegree) })
	if err != nil {
		return err
	}
	tr.do("stencil.assemble", root, -1, func() { w.op = stencil.Assemble(w.g, stencil.PhiFromTimeStep(paperTau)) })
	tr.do("decomp.build", root, -1, func() {
		var bx, by int
		if bx, by, _, err = decomp.ChooseBlocking(w.g, paperRanks, 3, 2); err != nil {
			return
		}
		if w.d, err = decomp.New(w.g, bx, by, decomp.DefaultHalo); err == nil {
			w.d.AssignOnePerRank()
		}
	})
	if err != nil {
		return err
	}
	w.b = rhs(w.g, w.op, newRNG(w.seed, 1), rhsAmp)
	w.s = []*psSolver{
		{name: "chrongear", method: core.MethodChronGear, precond: core.PrecondDiagonal},
		{name: "pcsi", method: core.MethodPCSI, precond: core.PrecondEVP},
		{name: "sstep", method: core.MethodSStep, precond: core.PrecondDiagonal},
	}
	for _, s := range w.s {
		var world *comm.World
		tr.do("comm.world", root, -1, func() { world, err = comm.NewWorld(w.d, w.mach) })
		if err != nil {
			return err
		}
		world.SetThreads(procs)
		tr.do("core.build", root, -1, func() {
			if s.sess, err = core.NewSession(w.g, w.op, w.d, world, core.Options{Precond: s.precond}); err == nil {
				err = s.sess.Setup()
			}
		})
		if err != nil {
			return err
		}
		if s.method != core.MethodChronGear {
			tr.do("core.lanczos", root, -1, func() { _, _, _, err = s.sess.EstimateEigenvalues(nil, 0) })
			if err != nil {
				return err
			}
		}
		s.x = make([]float64, w.g.N())
	}
	w.kappa = w.s[2].sess.Mu / w.s[2].sess.Nu
	return nil
}

// prepare has nothing to build: every op solves the set-up's RHS.
func (w *paperScale) prepare(int) {}

func (w *paperScale) round(idx int, tr *tracer) []op {
	var o op
	root := tr.begin("op", -1, idx)
	for _, s := range w.s {
		sp := tr.begin("core.solve."+s.name, root, idx)
		t0 := time.Now()
		res, x, err := s.sess.SolveContext(context.Background(), s.method, w.b, nil)
		o.ms += sinceMS(t0)
		tr.end(sp)
		s.res, s.err = res, err
		if err == nil {
			copy(s.x, x)
		}
		o.virtualMS += res.Stats.MaxClock * 1e3
	}
	tr.end(root)
	return []op{o}
}

func (w *paperScale) check(_ int, ops []op, _ *tracer) { ops[0].err = w.verify() }

// verify checks the last op's three solves against the independent
// residual checker and the methods' own reduction counts, then checks that
// the solutions agree as closely as their residuals and the conditioning
// allow.
func (w *paperScale) verify() error {
	tol := w.s[0].sess.Opts.Tol
	for _, s := range w.s {
		res := s.res
		switch {
		case s.err != nil:
			return fmt.Errorf("%s: %w", s.name, s.err)
		case !res.Converged:
			return fmt.Errorf("%s: not converged after %d iterations", s.name, res.Iterations)
		}
		if r := residual.Relative(w.op, w.b, s.x); !(r <= resFactor*tol) {
			return fmt.Errorf("%s: true relative residual %.3g above %d·tol", s.name, r, resFactor)
		}
		red := res.Stats.PerRank[0].Reductions
		switch s.method {
		case core.MethodChronGear:
			if red != int64(res.Iterations+1) {
				return fmt.Errorf("chrongear: %d reductions for %d iterations, want iterations+1", red, res.Iterations)
			}
		case core.MethodSStep:
			bound := int64(math.Ceil(float64(res.Iterations)/float64(s.sess.Opts.SStep))) + 1
			if red > bound {
				return fmt.Errorf("sstep: %d reductions for %d iterations, above ceil(iters/s)+1 = %d", red, res.Iterations, bound)
			}
		}
	}
	// In the D-scaled norms, two solutions with scaled residuals r1 and r2
	// differ by at most κ·(r1 + r2); the Lanczos κ is an estimate, so allow
	// a factor of 10 on it.
	ref := w.s[0]
	r0 := residual.ScaledRelative(w.op, w.b, ref.x)
	for _, s := range w.s[1:] {
		ri := residual.ScaledRelative(w.op, w.b, s.x)
		bound := 10 * w.kappa * (r0 + ri)
		d := residual.ScaledDistance(w.op, s.x, ref.x)
		s.agree = [2]float64{d, bound}
		if !(d <= bound) {
			return fmt.Errorf("%s and chrongear solutions differ by %.3g, above 10·κ·(r1+r2) = %.3g", s.name, d, bound)
		}
	}
	return nil
}

func (w *paperScale) finish() error { return nil }

func (w *paperScale) layers(tr *tracer, m map[string]float64) {
	setupLayers(tr, m)
	var pred, virt float64
	var red, haloB, haloM float64
	var comp, halo, reduce float64
	n2 := float64(w.g.Nx * w.g.Ny)
	for _, s := range w.s {
		res := s.res
		k := float64(res.Iterations)
		p := res.Stats.PerRank
		nr := float64(len(p))
		m["core.iters."+s.name] = k
		m["core.solve_ms."+s.name] = median(tr.durations("core.solve." + s.name))
		red += float64(res.Stats.Sum.Reductions) / nr
		haloB += float64(res.Stats.Sum.HaloBytes) / nr
		haloM += float64(res.Stats.Sum.HaloMsgs) / nr
		c, h, r := res.Stats.Breakdown()
		comp, halo, reduce = comp+c.Max, halo+h.Max, reduce+r.Max
		virt += res.Stats.MaxClock
		fmt.Printf("paper_scale %s/%v: %d iterations, %d reductions per rank, %.3f virtual ms, true residual %.3g, distance from chrongear %.3g (bound %.3g)\n",
			s.name, s.precond, res.Iterations, p[0].Reductions, res.Stats.MaxClock*1e3,
			residual.Relative(w.op, w.b, s.x), s.agree[0], s.agree[1])
		switch s.method {
		case core.MethodChronGear:
			pred += perfmodel.EqChronGearDiag(w.mach, n2, len(p), k)
		case core.MethodPCSI:
			pred += perfmodel.EqPCSIEVP(w.mach, n2, len(p), k)
			if res.Trace != nil {
				m["core.pcsi_widenings"] = float64(len(res.Trace.Intervals))
				for _, ev := range res.Trace.Intervals {
					fmt.Printf("paper_scale pcsi interval event at iteration %d: %s to [%.4g, %.4g]\n", ev.Iter, ev.Kind, ev.Nu, ev.Mu)
				}
			}
		case core.MethodSStep:
			pred += perfmodel.EqSStepDiag(w.mach, n2, len(p), k, s.sess.Opts.SStep)
		}
	}
	m["core.lanczos_steps"] = float64(w.s[1].sess.EigSteps)
	m["comm.reductions_per_op"] = red
	m["comm.halo_kb_per_op"] = haloB / 1e3
	m["comm.halo_msgs_per_op"] = haloM
	m["comm.virtual_comp_ms"] = comp * 1e3
	m["comm.virtual_halo_ms"] = halo * 1e3
	m["comm.virtual_reduce_ms"] = reduce * 1e3
	m["perfmodel.predicted_ms_per_op"] = pred * 1e3
	setGap(m, pred*1e3, virt*1e3)
	m["stencil.apply_us"], m["stencil.apply_gbs_computed"] = probeApply(w.d, w.op)
	m["comm.exchange_us"], m["comm.allreduce_us"] = probeComm(w.s[0].sess.W)
	fmt.Printf("paper_scale: %d ranks, κ(D⁻¹A) ≈ %.4g, P-CSI interval [%.4g, %.4g]\n",
		w.d.NRanks, w.kappa, w.s[1].sess.Nu, w.s[1].sess.Mu)
}

func (w *paperScale) close() {}

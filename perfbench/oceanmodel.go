package main

import (
	"fmt"
	"math"
	"time"

	pop "repro"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/model"
	"repro/internal/perfmodel"
)

// ocean_model: the barotropic model on the 1° grid in four 160×192 blocks,
// ChronGear with diagonal preconditioning, priced on Yellowstone, on one
// worker shard. One op is one model step; a round is stepsPerRound steps
// from the state the spin-up left, so every round repeats the same steps
// exactly.
const (
	oceanBlockNx, oceanBlockNy = 160, 192
	spinupSteps                = 1
	stepsPerRound              = 4
	// perturbK is the amplitude (K) of the seeded surface-temperature
	// perturbation each run starts from.
	perturbK = 1e-3
	// sshFactor bounds |mean SSH| at sshFactor·tol·max|η|: the flux-form
	// free-surface step conserves volume up to the solver tolerance.
	sshFactor = 1.0
)

type oceanModel struct {
	seed int64
	g    *grid.Grid
	m    *model.Model
	// State after the spin-up, restored at the start of every round.
	eta, u, v []float64
	temp      [][]float64
	// Per-step counters of the last round.
	iters    []float64
	solveCtr []comm.Counters
	virtual  []float64
	// sshRatio is the largest |mean SSH| / (tol·max|η|) seen.
	sshRatio float64
}

func newOceanModel(seed int64) *oceanModel { return &oceanModel{seed: seed} }

func (w *oceanModel) setup(tr *tracer) error {
	root := tr.begin("setup", -1, -1)
	defer tr.end(root)
	var err error
	tr.do("grid.generate", root, -1, func() { w.g, err = pop.NewGrid(pop.GridOneDegree) })
	if err != nil {
		return err
	}
	tr.do("model.build", root, -1, func() {
		w.m, err = model.New(model.Config{
			Grid: w.g, Solver: model.SolverChronGear,
			SolverOpts: core.Options{Precond: core.PrecondDiagonal},
			BlockNx:    oceanBlockNx, BlockNy: oceanBlockNy,
			Cost: perfmodel.Yellowstone().WithSeed(uint64(w.seed)),
			// One worker shard: the step then runs on one core, where two
			// shards in lockstep each stall whenever the host takes the
			// other's vCPU away (on a busy host 2-shard steps varied 16%
			// run to run, 1-shard steps 4%).
			Threads:     1,
			TempPerturb: perturbK, PerturbSeed: w.seed,
		})
	})
	if err != nil {
		return err
	}
	tr.do("core.build", root, -1, func() { err = w.m.Sess.Setup() })
	if err != nil {
		return err
	}
	tr.do("model.spinup", root, -1, func() { err = w.m.Run(spinupSteps) })
	if err != nil {
		return err
	}
	w.eta, w.u, w.v = clone(w.m.Eta), clone(w.m.U), clone(w.m.V)
	w.temp = make([][]float64, len(w.m.Temp))
	for l, t := range w.m.Temp {
		w.temp[l] = clone(t)
	}
	return nil
}

func clone(x []float64) []float64 { return append([]float64(nil), x...) }

// prepare restores the state the spin-up left.
func (w *oceanModel) prepare(int) {
	m := w.m
	copy(m.Eta, w.eta)
	copy(m.U, w.u)
	copy(m.V, w.v)
	for l, t := range w.temp {
		copy(m.Temp[l], t)
	}
}

// round runs the round's steps. The volume and energy invariants read the
// state each step leaves, so they are checked between steps, inside the
// round, outside each step's own wall time.
func (w *oceanModel) round(idx int, tr *tracer) []op {
	m := w.m
	ops := make([]op, stepsPerRound)
	nr := float64(m.Sess.W.NRank)
	tol := m.Sess.Opts.Tol
	w.iters, w.solveCtr, w.virtual = w.iters[:0], w.solveCtr[:0], w.virtual[:0]
	for i := range ops {
		id := idx*stepsPerRound + i
		// The model keeps no per-step Result, only a running sum of its
		// solves' counters over ranks: zeroed here, it holds this step's
		// solve exactly.
		m.TotalSolveStats = comm.Counters{}
		sp := tr.begin("model.step", -1, id)
		t0 := time.Now()
		err := m.Step()
		ops[i].ms = sinceMS(t0)
		tr.end(sp)
		d := m.TotalSolveStats
		ops[i].virtualMS = d.Clock() / nr * 1e3
		w.solveCtr = append(w.solveCtr, d)
		w.iters = append(w.iters, float64(m.IterHistory[len(m.IterHistory)-1]))
		w.virtual = append(w.virtual, ops[i].virtualMS)
		if err != nil {
			ops[i].err = err
			// Later steps of the round would start from a broken state.
			for j := i + 1; j < len(ops); j++ {
				ops[j].err = fmt.Errorf("round abandoned after step %d failed", id)
			}
			break
		}
		ops[i].err = w.checkStep(tol)
	}
	return ops
}

// check has nothing left to verify: round checks every step.
func (w *oceanModel) check(int, []op, *tracer) {}

// checkStep verifies the volume and energy invariants after one step.
func (w *oceanModel) checkStep(tol float64) error {
	var etaMax float64
	for k, ocean := range w.g.Mask {
		if ocean {
			etaMax = max(etaMax, math.Abs(w.m.Eta[k]))
		}
	}
	ssh := w.m.MeanSSH()
	w.sshRatio = max(w.sshRatio, math.Abs(ssh)/(tol*etaMax))
	if !(math.Abs(ssh) <= sshFactor*tol*etaMax) {
		return fmt.Errorf("mean SSH %.3g m above %g·tol·max|η| = %.3g m", ssh, sshFactor, sshFactor*tol*etaMax)
	}
	if ke := w.m.KineticEnergy(); !(ke > 0 && !math.IsInf(ke, 0)) {
		return fmt.Errorf("kinetic energy %g is not finite and positive", ke)
	}
	return nil
}

func (w *oceanModel) finish() error { return nil }

func (w *oceanModel) layers(tr *tracer, m map[string]float64) {
	setupLayers(tr, m)
	nr := float64(w.m.Sess.W.NRank)
	var red, haloB, haloM, comp, halo, reduce, pred float64
	mach := perfmodel.Yellowstone()
	n2 := float64(w.g.Nx * w.g.Ny)
	for i, c := range w.solveCtr {
		red += float64(c.Reductions) / nr
		haloB += float64(c.HaloBytes) / nr
		haloM += float64(c.HaloMsgs) / nr
		comp += c.TComp / nr
		halo += c.THalo / nr
		reduce += c.TReduce / nr
		pred += perfmodel.EqChronGearDiag(mach, n2, int(nr), w.iters[i])
	}
	k := float64(len(w.solveCtr))
	m["core.iters.chrongear"] = mean(w.iters)
	m["core.iters_per_step"] = mean(w.iters)
	m["comm.reductions_per_op"] = red / k
	m["comm.halo_kb_per_op"] = haloB / k / 1e3
	m["comm.halo_msgs_per_op"] = haloM / k
	m["comm.virtual_comp_ms"] = comp / k * 1e3
	m["comm.virtual_halo_ms"] = halo / k * 1e3
	m["comm.virtual_reduce_ms"] = reduce / k * 1e3
	m["perfmodel.predicted_ms_per_op"] = pred / k * 1e3
	setGap(m, pred/k*1e3, mean(w.virtual))
	m["model.step_ms"] = median(tr.durations("model.step"))
	fmt.Printf("ocean_model: %d ranks, largest |mean SSH| / (tol·max|η|) = %.3g, bound %g\n", int(nr), w.sshRatio, float64(sshFactor))
	m["stencil.apply_us"], m["stencil.apply_gbs_computed"] = probeApply(w.m.Sess.D, w.m.Op)
	m["comm.exchange_us"], m["comm.allreduce_us"] = probeComm(w.m.Sess.W)
}

func (w *oceanModel) close() {}

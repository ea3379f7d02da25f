package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	pop "repro"
	"repro/internal/api"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/fleet"
	"repro/internal/grid"
	"repro/internal/perfmodel"
	"repro/internal/serve"
	"repro/internal/stencil"
	"repro/perfbench/residual"
)

// solve_service: a fleet of two in-process workers (four-rank sessions,
// Threads 1, priced on Yellowstone) on the 64×48 test grid, driven in a
// closed loop by clients that encode every request and decode every
// response through the binary frame codec.
const (
	serviceGrid  = pop.GridTest
	serviceRanks = 4
	serviceTau   = 1920  // s, the serve layer's default step
	serviceTol   = 1e-13 // the serve layer's default tolerance
	// A round is roundFresh fresh requests (misses) plus roundHot draws
	// from a hot set of hotSize requests (hits, or dedups when both
	// clients send one at once): a third of the stream reuses a RHS.
	roundFresh = 32
	roundHot   = 16
	hotSize    = 8
	// serviceSStep is the s-step block size s-step requests carry.
	serviceSStep = 4
	flightRing   = 1 << 15
	// cacheCapacity is the fleet's result-cache size (its default). Set-up
	// fills it, so every timed miss evicts an entry whatever the host's
	// speed; fillClients fill requests are kept in flight at once so the
	// workers batch them.
	cacheCapacity = 4096
	fillClients   = 16
)

type kind struct {
	method    core.Method
	precond   core.PrecondType
	precision core.Precision
}

// sstep is the block size the request carries (0 for other methods).
func (k kind) sstep() int {
	if k.method == core.MethodSStep {
		return serviceSStep
	}
	return 0
}

// kinds is the request mix; every round holds the same number of each.
var kinds = []kind{
	{core.MethodChronGear, core.PrecondDiagonal, core.Float64},
	{core.MethodPCSI, core.PrecondEVP, core.Float64},
	{core.MethodChronGear, core.PrecondDiagonal, core.Float32},
	{core.MethodSStep, core.PrecondDiagonal, core.Float64},
}

// slot is one request position of a round: a kind, and either a hot-set
// member or a fresh RHS.
type slot struct {
	kind int
	hot  int // hot-set index, −1 for a fresh RHS
}

// reply is what one op saw, kept for the checks and the layer metrics.
type reply struct {
	slot      slot
	b         []float64
	x         []float64
	converged bool
	cache     string
	ms        float64
	stats     core.Result
}

type solveService struct {
	seed    int64
	g       *grid.Grid
	op      *stencil.Operator
	fl      *fleet.Fleet
	plan    []slot
	hot     [][]float64 // hot-set RHS
	clients int
	// The current round's fresh RHS (by plan index; nil for hot slots) and
	// replies (by plan index).
	fresh   [][]float64
	replies []reply

	hotX    map[int][]float64 // first solution seen per hot request
	sampled []reply           // round-0 replies checked against a direct solve
	traced  []reply           // replies of the traced phase
	hashUS  []float64
	maxRes  []float64 // largest true residual seen per kind
	// Counters and wall clock when the traced phase started.
	fl0        *api.FleetCounters
	ctrs0      api.ServiceCounters
	tracedFrom int64
}

func newSolveService(seed int64) *solveService {
	return &solveService{seed: seed, clients: clients()}
}

func (w *solveService) setup(tr *tracer) error {
	if w.fl != nil {
		w.close()
	}
	root := tr.begin("setup", -1, -1)
	defer tr.end(root)
	var err error
	tr.do("grid.generate", root, -1, func() { w.g, err = pop.NewGrid(serviceGrid) })
	if err != nil {
		return err
	}
	tr.do("stencil.assemble", root, -1, func() { w.op = stencil.Assemble(w.g, stencil.PhiFromTimeStep(serviceTau)) })
	tr.do("fleet.new", root, -1, func() {
		w.fl, err = fleet.New(fleet.Options{
			Workers: 2,
			Worker: serve.Options{Cores: serviceRanks, Threads: 1, MachineName: "yellowstone",
				Tau: serviceTau, FlightRing: flightRing},
			CacheCapacity: cacheCapacity,
			FlightRing:    flightRing,
		})
	})
	if err != nil {
		return err
	}
	// Warm every kind's session pool (decomposition, preconditioner,
	// Lanczos) with a RHS the stream never sends.
	warm := rhs(w.g, w.op, newRNG(w.seed, 2), 1)
	for k := range kinds {
		tr.do("fleet.warmup", root, -1, func() { _, err = w.fl.Solve(context.Background(), w.request(k, warm)) })
		if err != nil {
			return err
		}
	}
	tr.do("fleet.fill", root, -1, func() { err = w.fill() })
	if err != nil {
		return err
	}
	r := newRNG(w.seed, 3)
	w.hot = make([][]float64, hotSize)
	for i := range w.hot {
		w.hot[i] = rhs(w.g, w.op, r, 1)
	}
	// The round plan: the same count of each kind, in one fixed shuffled
	// order for every seed, so seeds change the RHS values but not how the
	// two clients' requests meet; hot member h always carries kind
	// h mod len(kinds).
	w.plan = w.plan[:0]
	for i := 0; i < roundFresh; i++ {
		w.plan = append(w.plan, slot{kind: i % len(kinds), hot: -1})
	}
	for i := 0; i < roundHot; i++ {
		h := i % hotSize
		w.plan = append(w.plan, slot{kind: h % len(kinds), hot: h})
	}
	order := newRNG(0, 4)
	for i := len(w.plan) - 1; i > 0; i-- {
		j := order.intn(i + 1)
		w.plan[i], w.plan[j] = w.plan[j], w.plan[i]
	}
	w.hotX = make(map[int][]float64)
	w.maxRes = make([]float64, len(kinds))
	w.fresh = make([][]float64, len(w.plan))
	w.replies = make([]reply, len(w.plan))
	w.sampled, w.traced, w.hashUS = nil, nil, nil
	return nil
}

// fill writes cacheCapacity distinct entries into the fleet's cache with
// requests the timed stream never sends. Fill request k is a ChronGear
// fp64 solve of b_k = s_k·A·x, s_k = 1 + k·2⁻²⁰, whose initial guess is
// (1 + fillOffset)·s_k·x: its relative residual, about fillOffset, is far
// below tol, so it converges at its first check and costs little more than
// the serving path and the cache write. The offset keeps the initial
// residual from being exactly zero, where ChronGear divides 0 by 0 and
// never converges.
func (w *solveService) fill() error {
	const fillOffset = 1.0 / (1 << 48)
	x := field(w.g, newRNG(w.seed, 5), 1)
	b := apply(w.op, x)
	errs := make([]error, fillClients)
	var wg sync.WaitGroup
	for c := 0; c < fillClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := c; k < cacheCapacity && errs[c] == nil; k += fillClients {
				sk := 1 + float64(k)/(1<<20)
				req := w.request(0, scaled(b, sk))
				req.X0 = scaled(x, sk*(1+fillOffset))
				resp, err := w.fl.Solve(context.Background(), req)
				switch {
				case err != nil:
					errs[c] = fmt.Errorf("cache fill: %w", err)
				case resp.Cache != "miss" || !resp.Result.Converged:
					errs[c] = fmt.Errorf("cache fill request %d: %s, converged=%v", k, resp.Cache, resp.Result.Converged)
				}
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	if n := w.fl.Stats(context.Background()).Fleet.CacheEntries; n != cacheCapacity {
		return fmt.Errorf("cache holds %d entries after the fill, want %d", n, cacheCapacity)
	}
	return nil
}

// scaled returns s·v.
func scaled(v []float64, s float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = s * x
	}
	return out
}

func (w *solveService) request(kind int, b []float64) fleet.Request {
	k := kinds[kind]
	return fleet.Request{Request: serve.Request{Grid: serviceGrid, Method: k.method,
		Precond: k.precond, Precision: k.precision, SStep: k.sstep(), B: b}}
}

// prepare builds the round's fresh RHS: fresh request i of round r comes
// from stream 1000 + r·len(plan) + i, so fresh RHS are distinct across
// the whole run.
func (w *solveService) prepare(idx int) {
	for i, s := range w.plan {
		w.fresh[i] = nil
		if s.hot < 0 {
			w.fresh[i] = rhs(w.g, w.op, newRNG(w.seed, uint64(1000+idx*len(w.plan)+i)), 1)
		}
	}
}

func (w *solveService) round(idx int, tr *tracer) []op {
	if tr != nil && w.fl0 == nil {
		// The traced phase starts: its layer metrics count from here.
		st := w.fl.Stats(context.Background())
		w.fl0, w.ctrs0, w.tracedFrom = st.Fleet, st.Totals, time.Now().UnixNano()
	}
	ops := make([]op, len(w.plan))
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(w.plan); i += w.clients {
				ops[i] = w.do(idx, i, tr)
			}
		}(c)
	}
	wg.Wait()
	return ops
}

// do runs one request end to end the way a client of a fleet router sees
// it: encode the request frame, decode it on the server side, solve through
// the fleet, encode the response frame, decode it on the client side.
func (w *solveService) do(round, i int, tr *tracer) op {
	s := w.plan[i]
	b := w.fresh[i]
	if s.hot >= 0 {
		b = w.hot[s.hot]
	}
	k := kinds[s.kind]
	id := round*len(w.plan) + i
	var o op
	root := tr.begin("op", -1, id)
	t0 := time.Now()
	var enc, out []byte
	var fr api.FrameRequest
	var resp fleet.Response
	var dr api.SolveResponse
	var err error
	tr.do("api.encode_request", root, id, func() {
		enc = api.AppendFrameRequest(nil, api.FrameRequest{Grid: serviceGrid, Method: k.method,
			Precond: k.precond, Precision: k.precision, SStep: k.sstep(), B: b, ReturnX: true})
	})
	tr.do("api.decode_request", root, id, func() { fr, err = api.DecodeFrameRequest(enc) })
	if err == nil {
		tr.do("fleet.solve", root, id, func() {
			resp, err = w.fl.Solve(context.Background(), fleet.Request{Request: serve.Request{
				Grid: fr.Grid, Method: fr.Method, Precond: fr.Precond, Precision: fr.Precision,
				SStep: fr.SStep, B: fr.B, X0: fr.X0}, NoCache: fr.NoCache})
		})
	}
	if err == nil {
		tr.do("api.encode_response", root, id, func() {
			res := resp.Result
			out = api.AppendFrameResponse(nil, api.SolveResponse{Converged: res.Converged,
				Iterations: res.Iterations, OuterIters: res.OuterIters, RelResidual: res.RelResidual,
				Solver: res.Solver, Precision: res.Precision.String(), TraceID: resp.TraceID,
				Cache: resp.Cache, Shard: resp.Shard, X: resp.X})
		})
		tr.do("api.decode_response", root, id, func() { dr, err = api.DecodeFrameResponse(out) })
	}
	o.ms = sinceMS(t0)
	tr.end(root)
	if err != nil {
		o.err = err
		return o
	}
	w.replies[i] = reply{slot: s, b: b, x: dr.X, converged: dr.Converged, cache: dr.Cache,
		ms: o.ms, stats: resp.Result}
	if dr.Cache == "miss" {
		// Hits and dedups ran no solve of their own.
		o.virtualMS = resp.Result.Stats.MaxClock * 1e3
	}
	return o
}

// check verifies the round's replies in plan order. In a traced round it
// also times api.HashSolve on each request and keeps the replies for the
// layer metrics.
func (w *solveService) check(round int, ops []op, tr *tracer) {
	for i := range ops {
		if ops[i].err != nil {
			continue
		}
		rp := w.replies[i]
		ops[i].err = w.verify(rp)
		if tr != nil {
			k := kinds[rp.slot.kind]
			h0 := time.Now()
			api.HashSolve(serviceGrid, k.method, k.precond, k.precision, k.sstep(), serviceTol, rp.b, nil)
			w.hashUS = append(w.hashUS, sinceMS(h0)*1e3)
			kept := rp
			kept.b, kept.x = nil, nil // the layer metrics need neither vector
			w.traced = append(w.traced, kept)
		}
		if round == 0 && rp.slot.hot < 0 && !sampledKind(w.sampled, rp.slot.kind) {
			// The first fresh request of each kind is re-solved directly.
			w.sampled = append(w.sampled, rp)
		}
	}
}

func sampledKind(rs []reply, kind int) bool {
	for _, r := range rs {
		if r.slot.kind == kind {
			return true
		}
	}
	return false
}

// verify checks one response: converged, independently checked residual,
// and — for hot requests — bitwise equal to every earlier answer to the
// same request, whichever way the fleet produced it.
func (w *solveService) verify(rp reply) error {
	if !rp.converged {
		return fmt.Errorf("request not converged after %d iterations", rp.stats.Iterations)
	}
	if len(rp.x) != w.g.N() {
		return fmt.Errorf("response carries %d solution values, want %d", len(rp.x), w.g.N())
	}
	r := residual.Relative(w.op, rp.b, rp.x)
	w.maxRes[rp.slot.kind] = max(w.maxRes[rp.slot.kind], r)
	if !(r <= resFactor*serviceTol) {
		return fmt.Errorf("%s response: true relative residual %.3g above %d·tol", rp.stats.Solver, r, resFactor)
	}
	if rp.slot.hot < 0 {
		return nil
	}
	ref, ok := w.hotX[rp.slot.hot]
	if !ok {
		w.hotX[rp.slot.hot] = rp.x
		return nil
	}
	if !bitwiseEqual(ref, rp.x) {
		return fmt.Errorf("hot request %d: %s answer differs from the first answer", rp.slot.hot, rp.cache)
	}
	return nil
}

func bitwiseEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// finish re-solves one sampled round-0 request of each kind directly with
// pop.NewSolver and requires the fleet's answer to match it bit for bit.
func (w *solveService) finish() error {
	var errs []error
	for _, rp := range w.sampled {
		k := kinds[rp.slot.kind]
		s, err := pop.NewSolver(w.g, pop.SolverSpec{Method: k.method, Precond: k.precond,
			Cores: serviceRanks, Threads: 1, MachineName: "yellowstone", Tau: serviceTau,
			Options: pop.SolverOptions{Precision: k.precision}})
		if err != nil {
			errs = append(errs, err)
			continue
		}
		_, x, err := s.Solve(rp.b, nil)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if !bitwiseEqual(x, rp.x) {
			errs = append(errs, fmt.Errorf("%v/%v/%v fleet answer differs from a direct solve",
				k.method, k.precond, k.precision))
		}
	}
	if len(w.sampled) < len(kinds) {
		errs = append(errs, fmt.Errorf("only %d of %d kinds sampled for the direct-solve check", len(w.sampled), len(kinds)))
	}
	return errors.Join(errs...)
}

func (w *solveService) layers(tr *tracer, m map[string]float64) {
	setupLayers(tr, m)
	ctx := context.Background()
	st := w.fl.Stats(ctx)
	f := st.Fleet
	hits := float64(f.CacheHits - w.fl0.CacheHits)
	misses := float64(f.CacheMisses - w.fl0.CacheMisses)
	dedups := float64(f.Deduped - w.fl0.Deduped)
	m["fleet.hits"], m["fleet.misses"], m["fleet.dedups"] = hits, misses, dedups
	if total := hits + misses + dedups; total > 0 {
		m["fleet.hit_ratio"] = hits / total
		fmt.Printf("fleet.hit_ratio base: %.0f hits of %.0f requests (%.0f misses, %.0f dedups; %d cache evictions)\n",
			hits, total, misses, dedups, f.CacheEvictions-w.fl0.CacheEvictions)
	}
	solves := float64(st.Totals.Solves - w.ctrs0.Solves)
	if batches := float64(st.Totals.Batches - w.ctrs0.Batches); batches > 0 {
		m["serve.mean_batch"] = solves / batches
	}

	var hitMS, missMS, virt []float64
	var red, haloB, haloM, comp, halo, reduce, pred float64
	iters := map[string][]float64{}
	var widen, pcsiSolves float64
	mach := perfmodel.Yellowstone()
	n2 := float64(w.g.Nx * w.g.Ny)
	for _, rp := range w.traced {
		switch rp.cache {
		case "hit":
			hitMS = append(hitMS, rp.ms)
		case "miss":
			missMS = append(missMS, rp.ms)
			res := rp.stats
			nr := float64(len(res.Stats.PerRank))
			red += float64(res.Stats.Sum.Reductions) / nr
			haloB += float64(res.Stats.Sum.HaloBytes) / nr
			haloM += float64(res.Stats.Sum.HaloMsgs) / nr
			c, h, r := res.Stats.Breakdown()
			comp, halo, reduce = comp+c.Max, halo+h.Max, reduce+r.Max
			virt = append(virt, res.Stats.MaxClock)
			pred += predict(mach, n2, int(nr), rp.slot.kind, res.Iterations)
			iters[res.Solver] = append(iters[res.Solver], float64(res.Iterations))
			if res.Solver == "pcsi" && res.Trace != nil {
				widen += float64(len(res.Trace.Intervals))
				pcsiSolves++
			}
		}
	}
	if pcsiSolves > 0 {
		m["core.pcsi_widenings"] = widen / pcsiSolves
	}
	perKind := make([][]float64, len(kinds))
	for _, rp := range w.traced {
		if rp.cache == "miss" {
			perKind[rp.slot.kind] = append(perKind[rp.slot.kind], rp.ms)
		}
	}
	for i, k := range kinds {
		v := perKind[i]
		fmt.Printf("solve_service miss %v/%v/%v: %d requests, p50 %.3f ms, p90 %.3f ms, largest true residual %.3g\n",
			k.method, k.precond, k.precision, len(v), median(v), quantile(v, 0.9), w.maxRes[i])
	}
	n := float64(len(w.traced))
	m["fleet.hit_ms_p50"], m["fleet.miss_ms_p50"] = median(hitMS), median(missMS)
	m["fleet.miss_ms_p90"] = quantile(missMS, 0.9)
	for name, v := range iters {
		m["core.iters."+name] = mean(v)
	}
	if n > 0 {
		m["comm.reductions_per_op"] = red / n
		m["comm.halo_kb_per_op"] = haloB / n / 1e3
		m["comm.halo_msgs_per_op"] = haloM / n
		m["comm.virtual_comp_ms"] = comp / n * 1e3
		m["comm.virtual_halo_ms"] = halo / n * 1e3
		m["comm.virtual_reduce_ms"] = reduce / n * 1e3
		m["perfmodel.predicted_ms_per_op"] = pred / n * 1e3
	}
	var vsum float64
	for _, v := range virt {
		vsum += v
	}
	setGap(m, pred*1e3, vsum*1e3)

	enc := tr.perOp("api.encode_request", "api.encode_response")
	dec := tr.perOp("api.decode_request", "api.decode_response")
	m["api.encode_us"], m["api.decode_us"] = median(enc)*1e3, median(dec)*1e3
	m["api.hash_us"] = median(w.hashUS)

	var router, queue, wait, solve []float64
	for _, rec := range w.fl.FlightRecords() {
		if rec.StartUnixNS < w.tracedFrom {
			continue
		}
		if rec.Shard < 0 || rec.Session < 0 {
			if rec.RouterNS > 0 {
				router = append(router, float64(rec.RouterNS)/1e3)
			}
			continue
		}
		queue = append(queue, float64(rec.QueueNS)/1e6)
		wait = append(wait, float64(rec.BatchWaitNS)/1e6)
		solve = append(solve, float64(rec.SolveNS)/1e6)
	}
	m["fleet.router_us_p50"] = median(router)
	m["serve.queue_ms_p50"], m["serve.batch_wait_ms_p50"], m["serve.solve_ms_p50"] = median(queue), median(wait), median(solve)

	// The kernel and communication probes run on a four-rank layout of
	// the test grid built the way the serve layer builds its sessions.
	if bx, by, _, err := decomp.ChooseBlocking(w.g, serviceRanks, 3, 2); err == nil {
		if d, err := decomp.New(w.g, bx, by, decomp.DefaultHalo); err == nil {
			d.AssignOnePerRank()
			m["stencil.apply_us"], m["stencil.apply_gbs_computed"] = probeApply(d, w.op)
			if world, err := comm.NewWorld(d, perfmodel.Yellowstone()); err == nil {
				world.SetThreads(1)
				m["comm.exchange_us"], m["comm.allreduce_us"] = probeComm(world)
			}
		}
	}
}

// predict prices one solve of request kind `kind` with the paper's closed
// forms (the float32 path as its float64 method: iterations count inner
// stencil sweeps either way).
func predict(mach *perfmodel.Machine, n2 float64, p, kind, iters int) float64 {
	k := float64(iters)
	switch kinds[kind].method {
	case core.MethodPCSI:
		return perfmodel.EqPCSIEVP(mach, n2, p, k)
	case core.MethodSStep:
		return perfmodel.EqSStepDiag(mach, n2, p, k, serviceSStep)
	}
	return perfmodel.EqChronGearDiag(mach, n2, p, k)
}

func (w *solveService) close() {
	if w.fl != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := w.fl.Close(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: closing the fleet:", err)
		}
		w.fl = nil
	}
}

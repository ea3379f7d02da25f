// Command perfbench is the repository's benchmark: it drives the solver
// stack through three workloads from one process and prints, as the last
// line of its standard output, one JSON object with the ops attempted and
// failed, whether every checked output was correct, and the metrics.
//
//	perfbench --workload paper_scale|ocean_model|solve_service \
//	    --seed N --seconds S --trace 0|1 [--spans FILE]
//
// With --trace 0 it prints the end-to-end metrics. With --trace 1 it times
// the first half of the run untraced and the second half with spans around
// its own calls into each layer, then prints the per-layer metrics (and
// writes the spans as JSON to --spans when given). See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// setups is how many times a run builds its workload; setup_s is their
// median, and the last build serves the timed phase.
const setups = 3

// procs is the GOMAXPROCS every workload runs with. On a 2-vCPU host a
// busy loop on the other vCPU slowed a two-P paper_scale op by 62% and
// two-P solve_service throughput by 33%, against 1.5% and 5% on one P: with
// one P the figures measure the program, not the neighbours.
const procs = 1

// op is the outcome of one operation of a workload.
type op struct {
	ms        float64 // wall time of the op's calls into the program
	virtualMS float64 // virtual Yellowstone time of the solves the op ran
	err       error   // why the op failed (nil: it passed every check)
}

// workload is one benchmark scenario. setup builds everything up to the
// first timed op (it may run several times; each call replaces the last);
// prepare builds round idx's inputs, round runs its fixed ops, and check
// verifies their outputs, setting the err of each op that fails (prepare
// and check run outside the timed window, so the benchmark's own input
// generation and checking count in no metric); finish makes the whole-run
// checks; layers adds the per-layer metrics of a traced run.
type workload interface {
	setup(tr *tracer) error
	prepare(idx int)
	round(idx int, tr *tracer) []op
	check(idx int, ops []op, tr *tracer)
	finish() error
	layers(tr *tracer, m map[string]float64)
	close()
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd and perLayer list every metric with its unit; BENCHMARK.json
// carries the same names.
var endToEnd = [][2]string{
	{"setup_s", "s"}, {"op_ms_p50", "ms"}, {"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"}, {"rss_peak_mb", "MB"}, {"virtual_ms_per_op", "ms"},
}

var perLayer = [][2]string{
	{"grid.generate_s", "s"}, {"decomp.build_s", "s"}, {"stencil.assemble_s", "s"},
	{"stencil.apply_us", "us"}, {"stencil.apply_gbs_computed", "GB/s"},
	{"core.build_s", "s"}, {"core.lanczos_s", "s"}, {"core.lanczos_steps", "count"},
	{"core.iters.chrongear", "count"}, {"core.iters.pcsi", "count"}, {"core.iters.sstep", "count"},
	{"core.solve_ms.chrongear", "ms"}, {"core.solve_ms.pcsi", "ms"}, {"core.solve_ms.sstep", "ms"},
	{"core.iters_per_step", "count"}, {"core.pcsi_widenings", "count"},
	{"comm.reductions_per_op", "count"}, {"comm.halo_kb_per_op", "KB"}, {"comm.halo_msgs_per_op", "count"},
	{"comm.virtual_comp_ms", "ms"}, {"comm.virtual_halo_ms", "ms"}, {"comm.virtual_reduce_ms", "ms"},
	{"comm.exchange_us", "us"}, {"comm.allreduce_us", "us"}, {"comm.cpu_per_wall", "ratio"},
	{"perfmodel.predicted_ms_per_op", "ms"}, {"perfmodel.gap_pct", "%"},
	{"model.build_s", "s"}, {"model.step_ms", "ms"},
	{"api.encode_us", "us"}, {"api.decode_us", "us"}, {"api.hash_us", "us"},
	{"fleet.hits", "count"}, {"fleet.misses", "count"}, {"fleet.dedups", "count"}, {"fleet.hit_ratio", "ratio"},
	{"fleet.router_us_p50", "us"}, {"fleet.hit_ms_p50", "ms"}, {"fleet.miss_ms_p50", "ms"}, {"fleet.miss_ms_p90", "ms"},
	{"serve.queue_ms_p50", "ms"}, {"serve.batch_wait_ms_p50", "ms"}, {"serve.solve_ms_p50", "ms"},
	{"serve.mean_batch", "count"}, {"obs.trace_overhead_pct", "%"},
}

// phase is the outcome of one timed phase.
type phase struct {
	ops      []op
	wallS    float64
	cpuMS    float64
	okMS     []float64
	virtual  []float64
	rates    []float64 // passing ops per second of each round
	failed   int
	firstErr error
}

// timed runs whole rounds until the next round would take the timed time
// past budget (always at least one round). Only the rounds themselves are
// timed, in wall and CPU time; each round's prepare and check are not.
func timed(w workload, tr *tracer, budget time.Duration, round *int) phase {
	var p phase
	var spent, last time.Duration
	for first := true; first || spent+last <= budget; first = false {
		w.prepare(*round)
		cpu0, _ := usage()
		r0 := time.Now()
		ops := w.round(*round, tr)
		last = time.Since(r0)
		cpu1, _ := usage()
		w.check(*round, ops, tr)
		passed := 0
		for _, o := range ops {
			if o.err == nil {
				passed++
			}
		}
		p.rates = append(p.rates, float64(passed)/last.Seconds())
		spent += last
		p.cpuMS += ms(cpu1 - cpu0)
		p.ops = append(p.ops, ops...)
		*round++
	}
	p.wallS = spent.Seconds()
	for _, o := range p.ops {
		if o.err != nil {
			p.failed++
			if p.firstErr == nil {
				p.firstErr = o.err
			}
			continue
		}
		p.okMS = append(p.okMS, o.ms)
		p.virtual = append(p.virtual, o.virtualMS)
	}
	return p
}

func main() {
	name := flag.String("workload", "", "workload: paper_scale, ocean_model or solve_service")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the timed phase (s)")
	traced := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	spansOut := flag.String("spans", "", "traced run: write the spans as JSON to this file")
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *spansOut); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// clients is solve_service's client count: two, or the CPU count when that
// is lower.
func clients() int { return min(2, runtime.NumCPU()) }

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "paper_scale":
		return newPaperScale(seed), nil
	case "ocean_model":
		return newOceanModel(seed), nil
	case "solve_service":
		return newSolveService(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func run(name string, seed int64, budget time.Duration, traced bool, spansOut string) error {
	w, err := newWorkload(name, seed)
	if err != nil {
		return err
	}
	defer w.close()
	runtime.GOMAXPROCS(procs)
	tr := newTracer()
	tr.on = traced

	var setupS []float64
	for i := 0; i < setups; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(tr); err != nil {
			return fmt.Errorf("%s set-up: %w", name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	rep := report{Metrics: make(map[string]metric)}
	round := 0
	var phases []phase
	if !traced {
		phases = append(phases, timed(w, nil, budget, &round))
	} else {
		// Untraced first half, traced second half: the difference of their
		// medians is the tracing overhead.
		tr.on = false
		untraced := timed(w, nil, budget/2, &round)
		tr.on = true
		phases = append(phases, untraced, timed(w, tr, budget/2, &round))
	}
	finishErr := w.finish()
	for _, p := range phases {
		rep.Attempted += len(p.ops)
		rep.Failed += p.failed
		if p.firstErr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d ops failed; first: %v\n", name, p.failed, len(p.ops), p.firstErr)
		}
	}
	if finishErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, finishErr)
	}
	rep.Correct = rep.Failed == 0 && finishErr == nil

	last := phases[len(phases)-1]
	_, rss := usage()
	if !traced {
		p := last
		vals := map[string]float64{
			"setup_s":           median(setupS),
			"op_ms_p50":         median(p.okMS),
			"ops_per_s":         median(p.rates),
			"cpu_ms_per_op":     p.cpuMS / float64(len(p.ops)),
			"rss_peak_mb":       rss,
			"virtual_ms_per_op": exactMean(p.virtual),
		}
		for _, m := range endToEnd {
			rep.Metrics[m[0]] = metric{vals[m[0]], m[1]}
		}
		// The 90th percentile is printed here, not among the metrics: on a
		// busy 2-vCPU host its spread over ten seeds reached 0.43 of its
		// median while op_ms_p50's stayed under 0.16.
		fmt.Printf("%s: %d ops in %.2f s, op_ms_p90 %.4f ms over %d passing ops, setups %v s\n",
			name, len(p.ops), p.wallS, quantile(p.okMS, 0.9), len(p.okMS), setupS)
	} else {
		vals := make(map[string]float64)
		w.layers(tr, vals)
		p50 := median(last.okMS)
		if p50 > 0 {
			vals["comm.cpu_per_wall"] = last.cpuMS / float64(len(last.ops)) / p50
			fmt.Printf("comm.cpu_per_wall base: cpu %.3f ms/op over op_ms_p50 %.3f ms\n", last.cpuMS/float64(len(last.ops)), p50)
		}
		if u := median(phases[0].okMS); u > 0 {
			vals["obs.trace_overhead_pct"] = 100 * (p50/u - 1)
			fmt.Printf("obs.trace_overhead_pct base: traced op_ms_p50 %.3f ms (%d ops) against untraced %.3f ms (%d ops)\n",
				p50, len(last.okMS), u, len(phases[0].okMS))
		}
		for _, m := range perLayer {
			v := vals[m[0]]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			rep.Metrics[m[0]] = metric{v, m[1]}
		}
		printSelfTimes(tr)
		if spansOut != "" {
			if err := tr.write(spansOut, name, seed); err != nil {
				return err
			}
		}
	}
	out, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// printSelfTimes prints each span name's count, median duration and median
// self time.
func printSelfTimes(tr *tracer) {
	self := tr.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-28s %7s %12s %12s\n", "span", "count", "p50_ms", "self_p50_ms")
	for _, n := range names {
		fmt.Printf("%-28s %7d %12.4f %12.4f\n", n, len(self[n]), median(tr.durations(n)), median(self[n]))
	}
}

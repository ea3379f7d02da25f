package main

import (
	"fmt"
	"math"
	"math/big"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// exactMean returns the mean of xs from an exact sum, rounded once: equal
// multisets of values give the same mean whatever their count or order, so
// a run of k identical rounds reads exactly like a run of one.
func exactMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := new(big.Float).SetPrec(2048)
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return x
		}
		sum.Add(sum, big.NewFloat(x))
	}
	m, _ := sum.Quo(sum, new(big.Float).SetInt64(int64(len(xs)))).Float64()
	return m
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// usage returns the process's user+system CPU time and its peak resident
// set size in MB (getrusage).
func usage() (cpu time.Duration, rssMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu, float64(ru.Maxrss) / 1024
}

// sinceMS returns the wall time since t0 in ms.
func sinceMS(t0 time.Time) float64 { return ms(time.Since(t0)) }

// setupLayers fills the set-up metrics shared by every workload from the
// set-up spans: the median over set-ups of each layer's total time in one
// set-up, in seconds.
func setupLayers(tr *tracer, m map[string]float64) {
	layers := map[string]string{
		"grid.generate": "grid.generate_s", "decomp.build": "decomp.build_s",
		"stencil.assemble": "stencil.assemble_s", "core.build": "core.build_s",
		"core.lanczos": "core.lanczos_s", "model.build": "model.build_s",
	}
	perSetup := make(map[string]map[int]float64)
	for _, s := range tr.spans {
		name, ok := layers[s.Name]
		if !ok || s.Op >= 0 {
			continue
		}
		if perSetup[name] == nil {
			perSetup[name] = make(map[int]float64)
		}
		perSetup[name][s.Parent] += float64(s.End-s.Start) / 1e9
	}
	for name, bySetup := range perSetup {
		var v []float64
		for _, t := range bySetup {
			v = append(v, t)
		}
		m[name] = median(v)
	}
}

// setGap records how far the closed-form prediction lies from the virtual
// clock, as an absolute share of the virtual time, and prints the signed
// gap with both bases.
func setGap(m map[string]float64, predictedMS, virtualMS float64) {
	if virtualMS <= 0 {
		return
	}
	gap := 100 * (predictedMS - virtualMS) / virtualMS
	m["perfmodel.gap_pct"] = math.Abs(gap)
	fmt.Printf("perfmodel.gap_pct base: predicted %.4f ms against virtual %.4f ms (signed gap %+.2f%%)\n",
		predictedMS, virtualMS, gap)
}

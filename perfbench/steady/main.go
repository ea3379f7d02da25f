// Command steady measures how steady the benchmark's figures are: it runs
// each workload N times untraced with seeds 1…N, rotating the workload
// order every repetition, and prints for each end-to-end metric its median,
// quartiles, interquartile spread as a share of the median, and max/min
// ratio, plus each workload's failed-op share. Run it from the repository
// root (it runs perfbench/run.sh from its working directory, so build it
// and start it there rather than with go -C):
//
//	(cd perfbench && GOFLAGS=-mod=mod GOPROXY=off go build -o ../.bench_build/steady ./steady)
//	.bench_build/steady -n 10 -seconds 30
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
)

var workloads = []string{"paper_scale", "ocean_model", "solve_service"}

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func main() {
	n := flag.Int("n", 10, "runs per workload")
	seconds := flag.Int("seconds", 30, "timed seconds per run")
	flag.Parse()

	values := make(map[string]map[string][]float64) // workload → metric → values
	units := make(map[string]string)
	shares := make(map[string][]string)
	for i := 0; i < *n; i++ {
		for j := range workloads {
			wl := workloads[(i+j)%len(workloads)]
			s := i + 1
			res, err := runOnce(wl, s, *seconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "steady: %s seed %d: %v\n", wl, s, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "%s seed %d: correct=%v attempted=%d failed=%d\n", wl, s, res.Correct, res.Attempted, res.Failed)
			if values[wl] == nil {
				values[wl] = make(map[string][]float64)
			}
			for name, m := range res.Metrics {
				values[wl][name] = append(values[wl][name], m.Value)
				units[name] = m.Unit
			}
			shares[wl] = append(shares[wl], fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
		}
	}
	fmt.Printf("%-14s %-24s %-6s %14s %14s %14s %9s %9s\n", "workload", "metric", "unit", "q1", "median", "q3", "iqr/med", "max/min")
	for _, wl := range workloads {
		names := make([]string, 0, len(values[wl]))
		for name := range values[wl] {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			v := values[wl][name]
			q1, med, q3 := quartiles(v)
			lo, hi := minMax(v)
			fmt.Printf("%-14s %-24s %-6s %14.6g %14.6g %14.6g %9.4f %9.4f\n", wl, name, units[name], q1, med, q3, (q3-q1)/med, hi/lo)
		}
		fmt.Printf("%-14s failed/attempted: %s\n", wl, strings.Join(shares[wl], " "))
	}
}

// runOnce runs the benchmark once and parses the last line of its output.
func runOnce(workload string, seed, seconds int) (result, error) {
	cmd := exec.Command("bash", "perfbench/run.sh", "--workload", workload,
		"--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, err
	}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var res result
	err = json.Unmarshal([]byte(last), &res)
	return res, err
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) computes them (the
// "exclusive" method).
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(p float64) float64 {
		m := float64(n+1) * p // 1-based position
		j := int(m)
		g := m - float64(j)
		switch {
		case j < 1:
			return s[0]
		case j >= n:
			return s[n-1]
		}
		return s[j-1] + g*(s[j]-s[j-1])
	}
	return q(0.25), q(0.5), q(0.75)
}

func minMax(v []float64) (lo, hi float64) {
	lo, hi = v[0], v[0]
	for _, x := range v {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}

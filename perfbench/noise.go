package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// noiseReport runs each workload n times, each in its own process with seeds
// 1..n, and prints for every metric the median, the quartiles and the
// interquartile range as a share of the median — the figure BENCHMARK.json's
// bounds are set from.
func noiseReport(only string, n, seconds, trace int) error {
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("noise: %w", err)
	}
	for _, w := range workloads {
		if only != "" && w.name != only {
			continue
		}
		values := map[string][]float64{}
		units := map[string]string{}
		failed := 0
		for seed := 1; seed <= n; seed++ {
			cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.Itoa(seed),
				"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("noise: %s seed %d: %w", w.name, seed, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var r result
			if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
				return fmt.Errorf("noise: %s seed %d: %w", w.name, seed, err)
			}
			if !r.Correct {
				return fmt.Errorf("noise: %s seed %d: wrong results", w.name, seed)
			}
			failed += r.Failed
			line := fmt.Sprintf("noise: %s seed %d:", w.name, seed)
			for k, m := range r.Metrics {
				values[k] = append(values[k], m.Value)
				units[k] = m.Unit
				line += fmt.Sprintf(" %s=%.4g", k, m.Value)
			}
			fmt.Fprintln(os.Stderr, line)
		}
		names := make([]string, 0, len(values))
		for k := range values {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Printf("%s: %d runs, %d failed operations\n", w.name, n, failed)
		fmt.Printf("  %-32s %12s %12s %12s %8s\n", "metric", "q1", "median", "q3", "iqr/med")
		for _, k := range names {
			q1, med, q3 := quartiles(values[k])
			fmt.Printf("  %-32s %12.4g %12.4g %12.4g %7.1f%%  %s\n", k, q1, med, q3, 100*ratio(q3-q1, med), units[k])
		}
	}
	return nil
}

// quartiles returns the three cut points of v into four groups by the
// exclusive method of Python's statistics.quantiles(v, n=4).
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return s[0], s[0], s[0]
	}
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// Command perfbench is the repository's benchmark: closed-loop workloads
// against an in-process diffindex.DB on the zero-latency profile, with every
// result checked against a model the benchmark keeps itself. See README.md.
//
//	perfbench --workload update-zipf --seed 1 --seconds 10 --trace 0
//	perfbench --noise 10 --seconds 10            # spread report, all workloads
//
// With --trace 0 it prints the end-to-end metrics of an untraced run; with
// --trace 1 the per-layer metrics of a traced run (tracing on, counting file
// system), after an untraced run of the same work that gives the tracing
// overhead. The last line of standard output is one JSON object.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"diffindex"
)

// reps is how many times a --trace 0 run sets up a fresh store and measures
// its share of the work on it; each end-to-end metric is the median over
// the repetitions.
const reps = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: update-zipf, read-index or ingest-async")
	seed := flag.Uint64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 10, "run length: the run does seconds × the workload's nominal rate operations")
	trace := flag.Int("trace", 0, "0: end-to-end metrics of an untraced run; 1: per-layer metrics of a traced run")
	noise := flag.Int("noise", 0, "run each workload (or --workload) this many times with seeds 1..n and print every metric's median and quartiles")
	flag.Parse()

	if *noise > 0 {
		if err := noiseReport(*name, *noise, *seconds, *trace); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, err := findWorkload(*name)
	if err == nil && *seconds < 1 {
		err = errors.New("--seconds must be at least 1")
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = errors.New("--trace must be 0 or 1")
	}
	var res result
	if err == nil {
		res, err = run(w, *seed, *seconds, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// phase is the outcome of one measured phase on one store.
type phase struct {
	ops       int // timed operations
	attempted int // every operation and post-run fact checked
	failed    int
	wrong     int // operations or facts whose result disagreed with the model
	wall      time.Duration
	cpu       time.Duration
	lat       [numOpKinds][]int64 // sorted, ns
	all       []int64             // every timed latency, sorted, ns
	span      span
	auqPeak   int64
	liveHeap  uint64
}

// plan is the fixed work of one repetition, in whole rounds per client: a
// run of s seconds does s × the workload's nominal rate operations, split
// evenly over its repetitions.
func plan(w *workload, seconds int) (warm, timed int) {
	timed = seconds * w.rate / reps / clients / len(w.round)
	if timed < 1 {
		timed = 1
	}
	warm = int(float64(timed)*warmup + 0.5)
	return warm, timed
}

func run(w *workload, seed uint64, seconds int, traced bool) (result, error) {
	warm, timed := plan(w, seconds)
	capacity := w.rows + clients*(warm+timed)*len(w.round)
	res := result{Correct: true, Metrics: map[string]metric{}}
	// rep sets up a fresh store, measures one repetition on it and closes it.
	rep := func(traced bool) (phase, float64, error) {
		runtime.GC()
		start := time.Now()
		e, err := setup(w, seed, capacity, traced)
		if err != nil {
			return phase{}, 0, err
		}
		setupS := time.Since(start).Seconds()
		p, err := measure(e, seed, warm, timed, traced)
		if cerr := e.db.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("close: %w", cerr)
		}
		if err != nil {
			return p, 0, err
		}
		res.Attempted += p.attempted
		res.Failed += p.failed
		if p.wrong > 0 {
			res.Correct = false
		}
		return p, setupS, nil
	}

	if !traced {
		var v [5][]float64
		for i := 0; i < reps; i++ {
			p, setupS, err := rep(false)
			if err != nil {
				return res, err
			}
			for j, x := range []float64{
				setupS,
				float64(p.ops) / p.wall.Seconds(),
				quantileUs(p.all, 0.50),
				quantileUs(p.all, 0.99),
				float64(p.cpu.Microseconds()) / float64(p.ops),
			} {
				v[j] = append(v[j], x)
			}
		}
		for j, m := range []struct{ name, unit string }{
			{"setup_s", "s"}, {"ops_s", "1/s"}, {"op_p50_us", "us"}, {"op_p99_us", "us"}, {"cpu_us_per_op", "us"},
		} {
			res.Metrics[m.name] = metric{median(v[j]), m.unit}
		}
		res.Metrics["max_rss_mib"] = metric{maxRSSMiB(), "MiB"}
		return res, nil
	}

	// Traced: one repetition untraced, for the tracing overhead, then the
	// same work traced.
	var mean [2]float64
	var p phase
	for i, on := range []bool{false, true} {
		var err error
		if p, _, err = rep(on); err != nil {
			return res, err
		}
		var sum int64
		for _, v := range p.all {
			sum += v
		}
		mean[i] = float64(sum) / float64(len(p.all)) / 1e3
	}
	puts := len(p.lat[opUpdate]) + len(p.lat[opInsert])
	reads := len(p.lat[opGet]) + len(p.lat[opRows]) + len(p.lat[opGetOld]) + len(p.lat[opRange])
	res.Metrics = layerMetrics(p.span, p.ops, puts, reads, p.auqPeak)
	res.Metrics["runtime.live_heap_mib"] = metric{float64(p.liveHeap) / (1 << 20), "MiB"}
	res.Metrics["trace.overhead_us_per_op"] = metric{mean[1] - mean[0], "us"}
	for k := opKind(0); k < numOpKinds; k++ {
		res.Metrics["client."+opNames[k]+"_p50_us"] = metric{quantileUs(p.lat[k], 0.50), "us"}
		res.Metrics["client."+opNames[k]+"_p99_us"] = metric{quantileUs(p.lat[k], 0.99), "us"}
	}
	return res, nil
}

// measure runs the warm-up and the timed rounds on a loaded store, then
// brings the indexes to rest and checks the store against the model.
func measure(e *env, seed uint64, warm, timed int, traced bool) (phase, error) {
	var p phase
	cs := make([]*client, clients)
	for i := range cs {
		cs[i] = newClient(e, i, seed)
	}
	rounds := func(n int, record bool) {
		_ = parallel(func(c int) error {
			for r := 0; r < n; r++ {
				for _, k := range e.w.round {
					cs[c].do(k, record)
				}
			}
			return nil
		})
	}
	rounds(warm, false)
	runtime.GC()

	e.db.ResetStaleness()
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	if traced {
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			tick := time.NewTicker(5 * time.Millisecond)
			defer tick.Stop()
			for {
				if d := e.db.AUQStats().MaxRegionDepth; d > p.auqPeak {
					p.auqPeak = d
				}
				select {
				case <-stop:
					return
				case <-tick.C:
				}
			}
		}()
	}
	before := takeProbe(e)
	rounds(timed, true)
	p.wall = time.Since(before.at)
	// Background index work the puts queued is part of their cost: the
	// phase ends for CPU and layer counters once the queues are drained.
	var err error
	if e.w.scheme == diffindex.AsyncSimple || e.w.scheme == diffindex.AsyncSession {
		err = quiesce(e.db, e.w.scheme)
	}
	after := takeProbe(e)
	close(stop)
	sampler.Wait()
	if err != nil {
		return p, err
	}
	p.cpu = after.cpu - before.cpu
	p.span = span{before, after}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.liveHeap = ms.HeapAlloc

	for _, c := range cs {
		for k := range c.lat {
			p.lat[k] = append(p.lat[k], c.lat[k]...)
			p.all = append(p.all, c.lat[k]...)
		}
		p.failed += c.failed
		p.wrong += c.wrong
		for _, s := range c.problems {
			fmt.Fprintln(os.Stderr, "perfbench: failed operation:", s)
		}
	}
	for k := range p.lat {
		sortInts(p.lat[k])
	}
	sortInts(p.all)
	p.ops = len(p.all)
	p.attempted = clients * (warm + timed) * len(e.w.round)

	if err := quiesce(e.db, e.w.scheme); err != nil {
		return p, err
	}
	v, err := verify(e.db, e.m)
	if err != nil {
		return p, err
	}
	for _, s := range v.Problems {
		fmt.Fprintln(os.Stderr, "perfbench: post-run check:", s)
	}
	p.attempted += v.Checked
	p.failed += v.Failed
	p.wrong += v.Failed
	return p, nil
}

func sortInts(v []int64) { sort.Slice(v, func(i, j int) bool { return v[i] < v[j] }) }

// quantileUs is the q-quantile of sorted nanosecond samples, in µs, by
// linear interpolation between closest ranks; 0 with no samples.
func quantileUs(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return float64(sorted[len(sorted)-1]) / 1e3
	}
	f := pos - float64(i)
	return (float64(sorted[i])*(1-f) + float64(sorted[i+1])*f) / 1e3
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"diffindex"
	dimetrics "diffindex/internal/metrics"
)

// probe is everything the benchmark reads from outside the program at one
// instant: the program's own surfaces, the counting file system, the
// process's CPU time and the Go runtime.
type probe struct {
	at     time.Time
	reg    dimetrics.RegistrySnapshot
	hot    diffindex.HotPathStats
	io     diffindex.IOCounts
	fs     [numClasses]ioTotals
	cpu    time.Duration
	mem    runtime.MemStats
	gcCPU  float64 // runtime/metrics GC CPU seconds
	totCPU float64 // runtime/metrics total CPU seconds
	userB  int64
	stale  dimetrics.HistogramPoint
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMiB is the peak resident set of this process.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func takeProbe(e *env) probe {
	p := probe{at: time.Now(), cpu: processCPU()}
	p.reg = e.db.MetricsSnapshot()
	p.hot = e.db.HotPathStats()
	p.io = e.db.IOCounts()
	if e.fs != nil {
		p.fs = e.fs.all()
	}
	runtime.ReadMemStats(&p.mem)
	metrics.Read(cpuSamples)
	p.gcCPU, p.totCPU = cpuSamples[0].Value.Float64(), cpuSamples[1].Value.Float64()
	p.userB = e.userBytes.Load()
	for _, h := range p.reg.Histograms {
		if h.Name == "diffindex_staleness_ns" {
			p.stale = h
		}
	}
	return p
}

func labelsMatch(have, want map[string]string) bool {
	for k, v := range want {
		if have[k] != v {
			return false
		}
	}
	return true
}

// scalar sums every counter and gauge named name whose labels include want.
func scalar(s dimetrics.RegistrySnapshot, name string, want map[string]string) int64 {
	var n int64
	for _, set := range [][]dimetrics.MetricPoint{s.Counters, s.Gauges} {
		for _, p := range set {
			if p.Name == name && labelsMatch(p.Labels, want) {
				n += p.Value
			}
		}
	}
	return n
}

// histSum returns the sample count and sum of every histogram named name
// whose labels include want. Registry histograms are cumulative from Open
// and expose a count and a mean, so count·mean recovers the sum.
func histSum(s dimetrics.RegistrySnapshot, name string, want map[string]string) (count int64, sum float64) {
	for _, h := range s.Histograms {
		if h.Name == name && labelsMatch(h.Labels, want) {
			count += h.Count
			sum += float64(h.Count) * h.Mean
		}
	}
	return count, sum
}

// span is the difference between two probes around the measured phase.
type span struct{ a, b probe }

func (d span) scalar(name string, want map[string]string) float64 {
	return float64(scalar(d.b.reg, name, want) - scalar(d.a.reg, name, want))
}

// stageMeanUs is the phase mean of one stage's latency in microseconds.
func (d span) stageMeanUs(stage string, extra map[string]string) float64 {
	want := map[string]string{"stage": stage}
	for k, v := range extra {
		want[k] = v
	}
	c0, s0 := histSum(d.a.reg, "diffindex_stage_latency_ns", want)
	c1, s1 := histSum(d.b.reg, "diffindex_stage_latency_ns", want)
	return ratio(s1-s0, float64(c1-c0)) / 1e3
}

func (d span) stageCount(stage string) float64 {
	want := map[string]string{"stage": stage}
	c0, _ := histSum(d.a.reg, "diffindex_stage_latency_ns", want)
	c1, _ := histSum(d.b.reg, "diffindex_stage_latency_ns", want)
	return float64(c1 - c0)
}

func (d span) histMean(name string) float64 {
	c0, s0 := histSum(d.a.reg, name, nil)
	c1, s1 := histSum(d.b.reg, name, nil)
	return ratio(s1-s0, float64(c1-c0))
}

func (d span) fs(cl fileClass) ioTotals { return d.b.fs[cl].sub(d.a.fs[cl]) }

// ratio is a/b, or 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// serverSkew is the busiest server's share of region-server operations
// over the mean server's.
func (d span) serverSkew() float64 {
	var ops []float64
	for _, p := range d.b.reg.Counters {
		if p.Name == "diffindex_server_ops_total" {
			before := scalar(d.a.reg, p.Name, p.Labels)
			ops = append(ops, float64(p.Value-before))
		}
	}
	var sum, max float64
	for _, v := range ops {
		sum += v
		if v > max {
			max = v
		}
	}
	return ratio(max, sum/float64(len(ops)))
}

// layerMetrics derives the per-layer metrics of a measured phase. puts and
// reads count the phase's put-path and index-read operations; ops all of
// them.
func layerMetrics(d span, ops, puts, reads int, auqPeak int64) map[string]metric {
	fops, fputs, freads := float64(ops), float64(puts), float64(reads)
	io := func(f func(diffindex.IOCounts) int64) float64 { return float64(f(d.b.io) - f(d.a.io)) }
	wal, sst, other := d.fs(classWAL), d.fs(classTable), d.fs(classOther)
	all := wal.add(sst).add(other)
	cacheHits := float64(d.b.hot.CacheHits - d.a.hot.CacheHits)
	cacheMisses := float64(d.b.hot.CacheMisses - d.a.hot.CacheMisses)
	walBytes := d.scalar("diffindex_wal_bytes_total", nil)
	stored := walBytes + d.scalar("diffindex_flush_bytes_total", nil) +
		d.scalar("diffindex_compaction_bytes_total", map[string]string{"dir": "write"})
	ms := d.b.mem
	ma := d.a.mem
	return map[string]metric{
		"cluster.apply_rpcs_per_put":    {ratio(float64(d.b.hot.ApplyRPCs-d.a.hot.ApplyRPCs), fputs), "1"},
		"cluster.apply_cells_per_put":   {ratio(float64(d.b.hot.ApplyCells-d.a.hot.ApplyCells), fputs), "1"},
		"cluster.fanout_rpcs_per_read":  {ratio(d.scalar("diffindex_fanout_rpcs_total", nil), freads), "1"},
		"cluster.fanout_waves_per_read": {ratio(d.scalar("diffindex_fanout_waves_total", nil), freads), "1"},
		"cluster.server_ops_skew":       {d.serverSkew(), "ratio"},

		"core.index_rpc_us":       {d.stageMeanUs(dimetrics.StageIndexRPC, nil), "us"},
		"core.base_reads_per_put": {ratio(io(func(c diffindex.IOCounts) int64 { return c.BaseRead + c.AsyncBaseRead }), fputs), "1"},
		"core.index_puts_per_put": {ratio(io(func(c diffindex.IOCounts) int64 { return c.IndexPut + c.AsyncIndexPut }), fputs), "1"},
		"core.index_dels_per_put": {ratio(io(func(c diffindex.IOCounts) int64 { return c.IndexDel + c.AsyncIndexDel }), fputs), "1"},
		"core.index_scan_us":      {d.stageMeanUs(dimetrics.StageIndexScan, nil), "us"},
		"core.double_check_us":    {d.stageMeanUs(dimetrics.StageCheck, nil), "us"},
		"core.repairs_per_read":   {ratio(d.stageCount(dimetrics.StageRepair), freads), "1"},
		"core.multi_get_us":       {d.stageMeanUs(dimetrics.StageMultiGet, nil), "us"},
		"core.auq_enqueue_us":     {d.stageMeanUs(dimetrics.StageAUQEnqueue, nil), "us"},
		"core.aps_delivery_us":    {d.stageMeanUs(dimetrics.StageAPSDeliver, nil), "us"},
		"core.aps_batch_mean":     {d.histMean("diffindex_aps_batch_size"), "1"},
		"core.auq_depth_max":      {float64(auqPeak), "1"},
		"core.flush_drain_us":     {d.stageMeanUs(dimetrics.StageFlushDrain, nil), "us"},
		"core.index_lag_mean_ms":  {d.b.stale.Mean / 1e6, "ms"},
		"core.index_lag_p50_ms":   {float64(d.b.stale.P50) / 1e6, "ms"},
		"core.index_lag_p99_ms":   {float64(d.b.stale.P99) / 1e6, "ms"},

		"lsm.base_scan_us":         {d.stageMeanUs(dimetrics.StageStoreScan, map[string]string{"table": tableName}), "us"},
		"lsm.store_get_us":         {d.stageMeanUs(dimetrics.StageStoreGet, nil), "us"},
		"lsm.flush_ms":             {d.stageMeanUs(dimetrics.StageFlush, nil) / 1e3, "ms"},
		"lsm.flushes":              {d.stageCount(dimetrics.StageFlush), "count"},
		"lsm.compaction_rounds":    {d.scalar("diffindex_compaction_rounds_total", nil), "count"},
		"lsm.compaction_write_mib": {d.scalar("diffindex_compaction_bytes_total", map[string]string{"dir": "write"}) / (1 << 20), "MiB"},
		"lsm.write_amp":            {ratio(stored, float64(d.b.userB-d.a.userB)), "ratio"},
		"memtable.insert_us":       {d.stageMeanUs(dimetrics.StageMemtable, nil), "us"},
		"wal.append_us":            {d.stageMeanUs(dimetrics.StageWAL, nil), "us"},
		"wal.bytes_per_put":        {ratio(walBytes, fputs), "B"},

		"sstable.cache_hit_ratio":       {ratio(cacheHits, cacheHits+cacheMisses), "ratio"},
		"sstable.cache_misses_per_read": {ratio(cacheMisses, freads), "1"},

		"vfs.wal_syncs_per_put":     {ratio(float64(wal.Syncs), fputs), "1"},
		"vfs.sst_reads_per_read":    {ratio(float64(sst.Reads), freads), "1"},
		"vfs.sst_read_kib_per_read": {ratio(float64(sst.ReadBytes)/1024, freads), "KiB"},
		"vfs.write_kib_per_op":      {ratio(float64(all.WriteBytes)/1024, fops), "KiB"},
		"vfs.busy_us_per_op":        {ratio(float64(all.BusyNs)/1e3, fops), "us"},

		"runtime.alloc_kib_per_op": {ratio(float64(ms.TotalAlloc-ma.TotalAlloc)/1024, fops), "KiB"},
		"runtime.gc_per_kop":       {ratio(float64(ms.NumGC-ma.NumGC)*1000, fops), "1"},
		"runtime.gc_cpu_fraction":  {ratio(d.b.gcCPU-d.a.gcCPU, d.b.totCPU-d.a.totCPU), "ratio"},
	}
}

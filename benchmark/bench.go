package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/hurricane"
)

// metric is one reported number. n is the sample count behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// endToEnd lists the end-to-end metrics in print order. Those after
// rss_mb_p50 are printed and written to result.json with them but are not
// BENCHMARK.json metrics: peak_rss_mb (VmHWM) is one maximum per pass and
// moves 20% between runs with GC timing, where rss_mb_p50 moves 3%;
// failed_share is 0 on a healthy run (the driver reads failures from the
// result line's attempted/failed counts); the *_raw metrics are the timing
// metrics as measured, before the two host corrections (see endToEnd), with
// what the corrections used — the steal slope fitted on the job walls and the
// median host slowdown — so a comparison can be checked without them;
// steal_share describes the host, not the engine.
var endToEnd = []struct{ name, unit string }{
	{"job_s_p50", "s"},
	{"job_s_p75", "s"},
	{"records_per_s", "rec/s"},
	{"cpu_s_per_mrec", "s"},
	{"setup_s", "s"},
	{"rss_mb_p50", "MB"},
	{"peak_rss_mb", "MB"},
	{"failed_share", "ratio"},
	{"job_s_p50_raw", "s"},
	{"job_s_p75_raw", "s"},
	{"records_per_s_raw", "rec/s"},
	{"cpu_s_per_mrec_raw", "s"},
	{"setup_s_raw", "s"},
	{"steal_slope", "ratio"},
	{"steal_share", "ratio"},
	{"host_slowdown", "ratio"},
}

// gatedEndToEnd is how many of endToEnd, from the front, are BENCHMARK.json
// metrics; the rest stay off the result line.
const gatedEndToEnd = 6

func informational(name string) bool {
	for _, e := range endToEnd[gatedEndToEnd:] {
		if e.name == name {
			return true
		}
	}
	return false
}

// passResult is what one pass (untraced or traced) over one workload
// measured.
type passResult struct {
	metrics   map[string]metric
	attempted int
	failed    int
}

func (r *passResult) set(name, unit string, v float64, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0 // a pass whose jobs all failed still prints and encodes
	}
	r.metrics[name] = metric{Value: v, Unit: unit, N: n}
}

type options struct {
	seed    int64
	seconds float64
	quick   bool
	outDir  string
	log     io.Writer
}

const (
	warmupJobs = 2
	jobTimeout = 60 * time.Second
	quickJobs  = 4
	setupReps  = 9
	// traceFileSpans caps the trace file: every traced job is analysed,
	// but only the first jobs' spans, up to about this many, are written.
	traceFileSpans = 100_000
)

// jobSample is one job of the closed loop.
type jobSample struct {
	wall    float64 // submit -> Wait returns
	cpu     float64 // process user+sys CPU over the same region
	untimed float64 // engine work outside it: build, load, seal, collect, shutdown
	// Time the hypervisor gave this guest's CPUs to someone else during
	// the timed region and during the untimed work.
	steal, stealUntimed float64
	slowdown            float64 // how much slower than at rest the host ran fixed work beside the job (see reference)
	rss                 float64 // resident set when the timed region ended, MB
	err                 error
	stats               hurricane.MasterStats
}

// runJob runs one job on a fresh storage tier and compute cluster built and
// loaded outside the timed region, then checks its output against the
// oracle. jt != nil records the traced variant.
func (w *workload) runJob(in *input, jt *jobTrace) (s jobSample) {
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	steal0 := stealSeconds()
	t0 := time.Now()
	j, err := w.newJob(in, jt)
	if err != nil {
		return jobSample{err: err}
	}
	t, err := w.buildTier(jt)
	if err != nil {
		return jobSample{err: err}
	}
	defer runtime.GC() // every job starts from a collected heap
	if s.err = j.load(ctx, t.store); s.err != nil {
		t.close()
		return s
	}
	s.untimed = time.Since(t0).Seconds()
	s.stealUntimed = stealSeconds() - steal0
	ref := reference()
	steal1 := stealSeconds()

	cpu0 := cpuSeconds()
	var traceStart int64
	if jt != nil {
		traceStart = jt.begin()
	}
	w0 := time.Now()
	s.err = j.run(ctx, t.cluster)
	s.wall = time.Since(w0).Seconds()
	if jt != nil {
		jt.end(traceStart)
	}
	s.cpu = cpuSeconds() - cpu0
	s.steal = stealSeconds() - steal1
	s.rss = rssMB()
	s.slowdown = min(ref, reference()) / referenceAtRest

	t1, steal2 := time.Now(), stealSeconds()
	if m := t.cluster.Master(); m != nil {
		s.stats = m.Stats()
	}
	var got map[uint64]agg
	if s.err == nil {
		got, s.err = j.collect(ctx, t.store)
	}
	t.close()
	s.untimed += time.Since(t1).Seconds()
	s.stealUntimed += stealSeconds() - steal2
	if s.err == nil {
		s.err = checkResult(in.want, got)
	}
	return s
}

// runPass runs one workload's closed loop: set-up, two untimed warm-up
// jobs, then back-to-back jobs for opt.seconds. The traced pass runs the
// layer probes first and alternates untraced and traced jobs, so the
// tracing overhead is measured on interleaved jobs of one process.
func (w *workload) runPass(traced bool, opt options) (*passResult, []span) {
	res := &passResult{metrics: make(map[string]metric)}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // see workload.slots
	records := w.records
	if opt.quick {
		records /= 8
	}

	// Set-up, repeated so setup_s is a median: generate inputs and compute
	// the oracle from the seed.
	var in *input
	gen := make([]jobSample, setupReps) // untimed = the generation, wall and cpu unused
	for i := range gen {
		ref := reference()
		t0, steal0 := time.Now(), stealSeconds()
		in = w.generate(opt.seed, records)
		gen[i].untimed, gen[i].stealUntimed = time.Since(t0).Seconds(), stealSeconds()-steal0
		gen[i].slowdown = min(ref, reference()) / referenceAtRest
	}
	fmt.Fprintf(opt.log, "%s: seed %d, %d records, %d distinct keys, top key share %.4f, nproc %d, procs %d, slots %d%s\n",
		w.name, opt.seed, records, len(in.want), in.topKeyShare, runtime.NumCPU(), runtime.GOMAXPROCS(0), w.slots(), simulatedNote(w))

	if traced {
		reps := probeReps
		if opt.quick {
			reps = 1
		}
		runProbes(res, w, in, reps)
	}
	goroutines := runtime.NumGoroutine()

	var pass *tracePass
	if traced {
		pass = newTracePass()
	}
	jobNo := 0
	next := func() (*jobTrace, jobSample) {
		var jt *jobTrace
		if traced && jobNo%2 == 1 {
			jt = pass.newJob(jobNo)
		}
		jobNo++
		return jt, w.runJob(in, jt)
	}
	warmups := warmupJobs
	if opt.quick {
		warmups = 1
	}
	for i := 0; i < warmups; i++ {
		if _, s := next(); s.err != nil {
			fmt.Fprintf(opt.log, "%s: warm-up job failed: %v\n", w.name, s.err)
		}
	}

	var plain, tracedJobs []jobSample
	var perJob []map[string]float64
	spans := 0 // kept for the trace file
	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	for n := 0; ; n++ {
		if opt.quick {
			if n >= quickJobs {
				break
			}
		} else if n >= 4 && time.Now().After(deadline) {
			break
		}
		jt, s := next()
		res.attempted++
		if s.err != nil {
			res.failed++
			fmt.Fprintf(opt.log, "%s: job %d failed: %v\n", w.name, n, s.err)
			continue
		}
		if jt == nil {
			plain = append(plain, s)
			continue
		}
		tracedJobs = append(tracedJobs, s)
		perJob = append(perJob, jt.analyze(w, in, s))
		if spans+len(jt.spans) <= traceFileSpans || spans == 0 {
			spans += len(jt.spans)
			pass.jobs = append(pass.jobs, jt)
		}
	}

	if !traced {
		res.endToEnd(plain, records, gen)
		return res, nil
	}

	for name, unit := range tracedUnits {
		vals := make([]float64, 0, len(perJob))
		for _, m := range perJob {
			vals = append(vals, m[name])
		}
		res.set(name, unit, quantile(vals, 0.5), len(vals))
	}
	res.set("ctrl.decision_mode_share", "ratio", decisionModeShare(append(plain, tracedJobs...)), len(plain)+len(tracedJobs))
	res.set("core.goroutines_leaked", "count", float64(leakedGoroutines(goroutines)), 1)
	res.set("bench.top_key_share", "ratio", in.topKeyShare, 1)
	netWall := func(js []jobSample) float64 {
		walls, _ := stealAdjust(column(js, jobSample.getWall), column(js, jobSample.getSteal))
		return quantile(walls, 0.5)
	}
	overhead := 100 * (netWall(tracedJobs)/netWall(plain) - 1)
	res.set("bench.trace_overhead_pct", "%", overhead, len(tracedJobs))
	var kept []span
	for _, jt := range pass.jobs {
		kept = append(kept, jt.spans...)
	}
	return res, kept
}

// Field getters for column.
func (s jobSample) getWall() float64  { return s.wall }
func (s jobSample) getSteal() float64 { return s.steal }

// endToEnd computes the untraced pass's metrics from its jobs. Timing
// samples are taken net of what the host did to them: first the part
// explained by hypervisor steal (see stealAdjust; the generation samples share
// the slope fitted on the per-job untimed work, which is the same kind of
// harness code), then the part explained by the host running slower than at
// rest (see reference). Every pass runs on one P, so a job's wall is its CPU
// time plus waiting, and a slow host stretches the CPU part only.
func (r *passResult) endToEnd(jobs []jobSample, records int, gen []jobSample) {
	rawWalls, steal := column(jobs, jobSample.getWall), column(jobs, jobSample.getSteal)
	rawCPUs := column(jobs, func(s jobSample) float64 { return s.cpu })
	rawUntimed := column(jobs, func(s jobSample) float64 { return s.untimed })
	rawGen := column(gen, func(s jobSample) float64 { return s.untimed })
	walls, wallSlope := stealAdjust(rawWalls, steal)
	cpus, _ := stealAdjust(rawCPUs, steal)
	untimed, slope := stealAdjust(rawUntimed, column(jobs, func(s jobSample) float64 { return s.stealUntimed }))
	for i, s := range jobs {
		walls[i] -= cpus[i] * (1 - 1/s.slowdown)
		cpus[i] /= s.slowdown
		untimed[i] /= s.slowdown
	}
	netGen := make([]float64, len(gen))
	for i, s := range gen {
		netGen[i] = (s.untimed - slope*s.stealUntimed) / s.slowdown
	}
	n := len(jobs)
	mrec := float64(records) * float64(n) / 1e6
	timing := func(suffix string, walls, cpus, gen, untimed []float64) {
		r.set("job_s_p50"+suffix, "s", quantile(walls, 0.50), n)
		r.set("job_s_p75"+suffix, "s", quantile(walls, 0.75), n)
		r.set("records_per_s"+suffix, "rec/s", mrec*1e6/sum(walls), n)
		r.set("cpu_s_per_mrec"+suffix, "s", quantile(cpus, 0.5)/float64(records)*1e6, n)
		r.set("setup_s"+suffix, "s", quantile(gen, 0.5)+quantile(untimed, 0.5), n)
	}
	timing("", walls, cpus, netGen, untimed)
	timing("_raw", rawWalls, rawCPUs, rawGen, rawUntimed)
	r.set("rss_mb_p50", "MB", quantile(column(jobs, func(s jobSample) float64 { return s.rss }), 0.5), n)
	r.set("peak_rss_mb", "MB", peakRSSMB(), 1)
	r.set("failed_share", "ratio", float64(r.failed)/float64(max(r.attempted, 1)), r.attempted)
	r.set("steal_slope", "ratio", wallSlope, n)
	r.set("steal_share", "ratio", sum(steal)/sum(rawWalls), n)
	r.set("host_slowdown", "ratio", quantile(column(jobs, func(s jobSample) float64 { return s.slowdown }), 0.5), n)
}

// decisionModeShare is the share of the jobs whose split and isolation
// counts equal the pass's most common pair: 1 when the control plane took the
// same decisions in every job, lower when the jobs fall in groups that a
// median hides.
func decisionModeShare(jobs []jobSample) float64 {
	counts := make(map[[2]int]int)
	most := 0
	for _, s := range jobs {
		k := [2]int{s.stats.Splits, s.stats.Isolations}
		counts[k]++
		most = max(most, counts[k])
	}
	return float64(most) / float64(len(jobs))
}

func simulatedNote(w *workload) string {
	if w.costNS == 0 {
		return ""
	}
	return fmt.Sprintf(" [SIMULATED %d ns/record consumer cost]", w.costNS)
}

// leakedGoroutines reports goroutines alive after every tier was shut down,
// beyond the count before the first job. Shutdown cancels the engine's
// loops without joining them, so they get a moment to exit.
func leakedGoroutines(before int) int {
	var n int
	for i := 0; i < 50; i++ {
		if n = runtime.NumGoroutine() - before; n <= 0 {
			return 0
		}
		time.Sleep(10 * time.Millisecond)
	}
	return n
}

// ---- small statistics ----

func column(js []jobSample, f func(jobSample) float64) []float64 {
	out := make([]float64, len(js))
	for i, s := range js {
		out[i] = f(s)
	}
	return out
}

func sum(vs []float64) float64 {
	var t float64
	for _, v := range vs {
		t += v
	}
	return t
}

// quantile interpolates linearly between order statistics; NaN-free on an
// empty sample (0) so a failed pass still prints.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// stealAdjust takes the part explained by hypervisor steal off each timing
// sample. On a shared host the hypervisor runs other guests on this one's
// CPUs for stretches of seconds; a job that lost 0.2 s of CPU that way reads
// 0.1 s longer, and whole runs shift by tens of percent. The kernel reports
// the stolen time, so each series is regressed on it — Theil-Sen, the median
// of pairwise slopes, which a few wild jobs cannot move — and the samples
// are returned as sample - slope*steal: the series as it would read on an
// undisturbed host. The slope is held to [0, 1]: steal cannot speed a job up,
// and cannot cost more than the time stolen. With no steal to see (bare
// metal, or a quiet host) the slope is 0 and the samples are returned as
// measured.
func stealAdjust(samples, steal []float64) ([]float64, float64) {
	var slopes []float64
	for i := range samples {
		for j := i + 1; j < len(samples); j++ {
			if d := steal[j] - steal[i]; d != 0 {
				slopes = append(slopes, (samples[j]-samples[i])/d)
			}
		}
	}
	slope := 0.0
	if len(slopes) >= len(samples) {
		slope = min(max(quantile(slopes, 0.5), 0), 1)
	}
	out := make([]float64, len(samples))
	for i, v := range samples {
		out[i] = v - slope*steal[i]
	}
	return out, slope
}

// referenceAtRest is what reference takes on the 2-core reference host when
// nothing else contends for its memory system. It only fixes the scale: the
// timing metrics read as seconds on that host at rest, and on another host
// they are all off by one common factor.
const referenceAtRest = 1.15e-3

var referenceTuples = (&workload{keys: 1 << 16, zipfS: 1.3}).generate(1, 32<<10).probe

var referenceSink int

// reference runs a fixed piece of engine-like work — varint-encode 32k
// Zipf(1.3) tuples, decode them, hash them into four partitions, fold each
// partition into a map — that uses none of the engine's code, and returns
// how long it took. It runs right before and right after every timed region,
// and the shorter of the two runs counts: a burst of steal stretches one run
// several times over, and the job's own steal is taken off separately.
// On a shared host, neighbours that load the memory system slow the same job
// by 10-40% for minutes at a time with no steal reported (a register-only
// loop keeps its speed; anything that touches memory does not). This work
// slows with the engine's jobs, so its time over referenceAtRest says by how
// much the host is slowing them now.
func reference() float64 {
	t0 := time.Now()
	buf := make([]byte, 0, 16*len(referenceTuples))
	for _, t := range referenceTuples {
		buf = binary.AppendUvarint(buf, t.First)
		buf = binary.LittleEndian.AppendUint64(buf, t.Second)
	}
	parts := make([][]tuple, 4)
	for len(buf) > 0 {
		k, n := binary.Uvarint(buf)
		v := binary.LittleEndian.Uint64(buf[n:])
		buf = buf[n+8:]
		p := k * 0x9E3779B97F4A7C15 >> 62
		parts[p] = append(parts[p], tuple{First: k, Second: v})
	}
	groups := make(map[uint64]*agg)
	for _, part := range parts {
		for _, t := range part {
			a := groups[t.First]
			if a == nil {
				a = &agg{}
				groups[t.First] = a
			}
			a.n++
			a.sum += t.Second
		}
	}
	referenceSink += len(groups)
	return time.Since(t0).Seconds()
}

// ---- process accounting ----

// cpuSeconds is the process's user+sys CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// rssMB is the process's resident set now. It is sampled when each job's
// timed region ends, with the job's input, shuffle edge and output all still
// in the storage tier.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// stealSeconds is the time the hypervisor has run something else while this
// guest's CPUs had work: the steal column of /proc/stat's first line, summed
// over CPUs, in USER_HZ (100) ticks. 0 where there is none to read.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	f := strings.Fields(strings.SplitN(string(data), "\n", 2)[0])
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseFloat(f[8], 64)
	return ticks / 100
}

package main

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/hurricane"
)

// jobKind selects which of the benchmark's job bodies a workload runs.
type jobKind int

const (
	groupbyBatch jobKind = iota // ForEachBatch + WriteBatch
	groupbyRow                  // ForEach + PartitionedWriter.Write
	joinPlan                    // q.Join compiled by the planner
)

// workload is one row of the benchmark's workload table: the generated
// input, the job, and the pinned cluster shape. Everything a run depends on
// is in this table, so two runs of one commit differ only by host noise.
type workload struct {
	name string
	why  string
	kind jobKind

	records int     // input tuples per job (probe side for the join)
	keys    int     // key domain (build side size for the join)
	zipfS   float64 // Zipf exponent of the key ranks

	wire         bool // storage nodes behind TCP loopback listeners
	storageNodes int
	parts        int // base partitions of the shuffle edge
	chunkSize    int

	// computeNodes == 0 means one compute node with one worker slot.
	computeNodes int
	slotsPerNode int

	cadence     time.Duration // clone / split / monitor interval
	speculative bool
	costNS      int // simulated per-record consumer cost (groupby_slowrec only)

	// bounds is how far the median of each gated metric (in endToEnd order:
	// job_s_p50, job_s_p75, records_per_s, cpu_s_per_mrec, setup_s,
	// rss_mb_p50) may worsen on this workload before it counts as a
	// regression: max(0.05, 2 x its relative inter-quartile spread over ten
	// seeds, the widest of three rounds), a whole percent, at most the driver's
	// 0.25. README.md, Repeatability, has the spreads.
	bounds [gatedEndToEnd]float64
}

// defaultCadence is the engine's 2 s control cadence scaled 1/100, because
// the jobs here are sub-second.
const defaultCadence = 20 * time.Millisecond

// workloads is the table. Record counts size one run (set-up, two warm-up
// jobs, -seconds of back-to-back jobs, checks) to well under 30 s on a
// 2-core host; -quick divides them by 8.
var workloads = []workload{
	{
		name: "groupby_cpu", kind: groupbyBatch,
		why:     "Zipf(1.3) count+sum over 2^16 keys through the batch API in-proc: codec, routing, sketch and bag append do nearly all the work",
		records: 1_200_000, keys: 1 << 16, zipfS: 1.3,
		storageNodes: 4, parts: 4, chunkSize: 64 << 10, cadence: defaultCadence,
		bounds: [gatedEndToEnd]float64{0.13, 0.23, 0.18, 0.11, 0.17, 0.09},
	},
	{
		name: "groupby_row", kind: groupbyRow,
		why:     "the same logical job through the row API: a batch-plane gain that taxes the row view shows here and nowhere else",
		records: 600_000, keys: 1 << 16, zipfS: 1.3,
		storageNodes: 4, parts: 4, chunkSize: 64 << 10, cadence: defaultCadence,
		bounds: [gatedEndToEnd]float64{0.13, 0.18, 0.15, 0.15, 0.19, 0.05},
	},
	{
		name: "groupby_wire", kind: groupbyBatch,
		why:     "the groupby_cpu job with every bag on 2 storage nodes behind TCP loopback: round trips per consumed chunk dominate, the codec does little",
		records: 600_000, keys: 1 << 16, zipfS: 1.3, wire: true,
		storageNodes: 2, parts: 4, chunkSize: 64 << 10, cadence: defaultCadence,
		bounds: [gatedEndToEnd]float64{0.13, 0.17, 0.15, 0.07, 0.13, 0.05},
	},
	{
		name: "join_plan", kind: joinPlan,
		why:     "planner-compiled q.Join of 2^14 build keys with Zipf(1.3) probes, cold statistics: two shuffle edges, a build table and an output as large as the input",
		records: 400_000, keys: 1 << 14, zipfS: 1.3,
		storageNodes: 4, parts: 4, chunkSize: 64 << 10, cadence: defaultCadence,
		bounds: [gatedEndToEnd]float64{0.11, 0.16, 0.12, 0.10, 0.09, 0.05},
	},
	{
		name: "groupby_slowrec", kind: groupbyRow,
		why: "SIMULATED 5us/record consumer cost on 4x2 slots, Zipf(2) keys: wall is set by the most loaded consumer, so ctrl policies, sched leases and partition-map revisions do the work",
		// Zipf(2) gives the top key 61% of the records, so the partition it
		// hashes to holds more than twice the mean (the engine's split
		// threshold) wherever it and the next keys land: the policies act
		// in every job, by a property of the input and not of the placement.
		// At Zipf(1.3) (top key 34%) they acted for 38 of the 64 rotations of
		// the key domain; for the other 26 the job ran on clones alone and
		// its wall fell in two groups, 0.5 s and 1.2 s.
		records: 200_000, keys: 64, zipfS: 2,
		storageNodes: 4, parts: 4, chunkSize: 4 << 10,
		computeNodes: 4, slotsPerNode: 2,
		cadence: 2 * time.Millisecond, speculative: true, costNS: 5000,
		bounds: [gatedEndToEnd]float64{0.15, 0.20, 0.19, 0.25, 0.17, 0.05},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// Every pass runs on one P (runPass sets GOMAXPROCS(1)), so records/s is per
// core and comparable across hosts. With a second P the engine's helpers
// (prefetch, pipelined insert, master) hop between two virtual CPUs, and on
// a shared host every hop waits on the hypervisor: measured on the 2-core
// reference host, the same CPU-bound jobs ran 20% slower and their medians
// drifted 15-20% between runs instead of 3%. groupby_slowrec's eight slots
// sleep their simulated cost, so they share the one P without queueing.

// slots returns the workload's total worker slots.
func (w *workload) slots() int {
	if w.computeNodes == 0 {
		return 1
	}
	return w.computeNodes * w.slotsPerNode
}

// clusterConfig is the pinned engine configuration: engine defaults except
// the cluster shape and the control cadence.
func (w *workload) clusterConfig() hurricane.ClusterConfig {
	cfg := hurricane.ClusterConfig{
		ComputeNodes: w.computeNodes,
		SlotsPerNode: w.slotsPerNode,
		Master: hurricane.MasterConfig{
			CloneInterval:      w.cadence,
			SplitInterval:      w.cadence,
			SpeculativeCloning: w.speculative,
		},
		Node: hurricane.NodeConfig{MonitorInterval: w.cadence},
	}
	if w.computeNodes == 0 {
		cfg.ComputeNodes, cfg.SlotsPerNode = 1, 1
	}
	return cfg
}

// ---- generated inputs ----

// tuple is a 16-byte (key, payload) record.
type tuple = hurricane.Pair[uint64, uint64]

// agg is a per-key (count, wrapping sum) — what the groupbys compute and
// what the oracle holds for every job.
type agg struct{ n, sum uint64 }

// input is one workload's generated data with its serial oracle.
type input struct {
	probe []tuple // the groupby input, or the join's probe side S
	build []tuple // the join's build side R (one tuple per key)
	want  map[uint64]agg

	topKeyShare float64
	topKeyCount uint64
}

// generate makes the workload's input from the seed alone. Key ranks are
// Zipf(s) over the domain by inverse-CDF sampling (math/rand's Zipf cannot
// be bounded to a domain). The seed draws the sample — which ranks, in which
// order, with which payloads; the key id is the rank for every seed, because
// on the Zipf(1.3) workloads where the hottest keys hash decides whether the
// default policies act, and with a seeded mapping the same job ran 25%
// slower on the seeds where they did.
func (w *workload) generate(seed int64, records int) *input {
	rng := rand.New(rand.NewSource(seed))
	cdf := make([]float64, w.keys)
	var sum float64
	for i := range cdf {
		sum += math.Pow(float64(i+1), -w.zipfS)
		cdf[i] = sum
	}
	in := &input{probe: make([]tuple, records), want: make(map[uint64]agg, w.keys)}
	for i := range in.probe {
		rank := sort.SearchFloat64s(cdf, rng.Float64()*sum)
		in.probe[i] = tuple{First: uint64(rank), Second: rng.Uint64()}
	}
	if w.kind == joinPlan {
		in.build = make([]tuple, w.keys)
		for k := range in.build {
			in.build[k] = tuple{First: uint64(k), Second: rng.Uint64()}
		}
	}
	// Serial oracle: the groupbys' per-key count and payload sum; for the
	// join, per-key match count and the sum of both payloads over the
	// matches (every probe key has exactly one build tuple).
	for _, t := range in.probe {
		a := in.want[t.First]
		a.n++
		a.sum += t.Second
		if in.build != nil {
			a.sum += in.build[t.First].Second
		}
		in.want[t.First] = a
	}
	for _, a := range in.want {
		in.topKeyCount = max(in.topKeyCount, a.n)
	}
	in.topKeyShare = float64(in.topKeyCount) / float64(records)
	return in
}

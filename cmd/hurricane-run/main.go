// Command hurricane-run executes a Hurricane job against standalone
// hurricane-storage servers over TCP: compute nodes and the application
// master run in this process, all bags live on the remote storage tier.
//
// Usage:
//
//	hurricane-storage -addr 127.0.0.1:7070 &
//	hurricane-storage -addr 127.0.0.1:7071 &
//	hurricane-run -storage storage-0=127.0.0.1:7070,storage-1=127.0.0.1:7071 \
//	    -records 200000 -skew 1.0
//
// The job (-job) is the paper's ClickLog application, the skew-aware
// shuffle groupby (whose partitioned bags, producer sketches, and
// clones of hot-partition consumers then run against the remote storage
// tier over TCP), or a planner-compiled query (-job query): a declarative join
// that the planner fuses into the probe scan, every worker reading the
// build relation, so clones split the skewed probe chunk by chunk.
// Results are verified against an in-process oracle.
//
// Streaming mode: with -stream the process runs the continuous-ingestion
// subsystem against the remote storage tier — a drifting Zipf click-log
// source cut into event-time windows (-windows), each executed as a DAG
// groupby job whose partitioned edge is warm-started from the previous
// window's skew memory. Every window is verified against the serial
// groupby of its clicks:
//
//	hurricane-run -storage ... -stream -records 160000 -windows 8 -skew 1.3
//
// Scheduler service mode: with -serve the process runs the multi-job
// scheduler against the remote storage tier and executes every job
// submitted through the "sched!submit" control bag — concurrently, with
// per-job bag namespaces and fair-share slot leasing. Submissions travel
// over the same TCP storage transport as all other data; any process
// that can reach the storage nodes can submit:
//
//	hurricane-run -storage ... -serve &
//	hurricane-run -storage ... -submit -name j1 -job groupby -records 200000 -skew 1.3
//	hurricane-run -storage ... -submit -name j2 -job sqsum -records 100000 -weight 2
//	hurricane-run -storage ... -submit -name j3 -job query -records 200000 -skew 1.3
//
// The server runs each job under the -name it was submitted with, so
// after completion the client fetches the job's EXPLAIN ANALYZE,
// profile, and decision timeline from the server's debug endpoint by
// that name (same-host or reachable -debug address required; degrades
// to the result line otherwise). -job query runs the planner-compiled groupby,
// whose EXPLAIN ANALYZE renders the compiled physical plan annotated
// with the measured execution.
//
// A -serve process also exposes the cluster's live observability over
// HTTP (default 127.0.0.1:6066; move it with -debug addr, disable with
// -debug off): /metrics in Prometheus text format (including the
// hurricane_storage_op_* wire telemetry of its TCP storage client),
// /debug/trace for the typed skew-event log (?job= and ?type=
// filters), /debug/skew for per-edge heavy hitters and partition heat,
// /debug/profile/<job> for a job's
// measured execution profile (phase spans, critical path, per-edge skew
// attribution), /debug/explain/<job> for its EXPLAIN ANALYZE, and the
// standard /debug/pprof/ profiles:
//
//	curl -s localhost:6066/metrics | grep hurricane_storage_op_total
//	curl -s 'localhost:6066/debug/trace?job=j1&type=TaskCloned'
//	curl -s localhost:6066/debug/skew
//	curl -s localhost:6066/debug/profile/j1
//	curl -s localhost:6066/debug/explain/j3
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"maps"
	"os"
	"os/signal"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/bag"
	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/workload"
)

// runConfig is the cluster every mode of this command runs on: the
// engine's defaults at a cadence that suits jobs lasting seconds, not
// hours. A mode adds only what it alone needs.
func runConfig(computes, slots int) core.ClusterConfig {
	return core.ClusterConfig{
		ComputeNodes: computes,
		SlotsPerNode: slots,
		Master: core.MasterConfig{
			CloneInterval: 50 * time.Millisecond,
			SplitInterval: 20 * time.Millisecond,
		},
		Node: core.NodeConfig{
			MonitorInterval:   25 * time.Millisecond,
			OverloadThreshold: 0.5,
		},
	}
}

func main() {
	storageFlag := flag.String("storage", "", "comma-separated name=addr storage nodes")
	job := flag.String("job", "clicklog", "job to run: clicklog | groupby | query (with -submit: sqsum | groupby)")
	records := flag.Int("records", 200000, "records to generate")
	skew := flag.Float64("skew", 1.0, "zipf skew s")
	computes := flag.Int("computes", 4, "compute nodes in this process")
	slots := flag.Int("slots", 2, "worker slots per compute node")
	parts := flag.Int("parts", 4, "groupby/stream: base shuffle partitions")
	streamMode := flag.Bool("stream", false, "continuous ingestion: run a drifting Zipf click-log stream as event-time windows against the remote storage tier")
	windows := flag.Int("windows", 8, "-stream: number of event-time windows")
	serveMode := flag.Bool("serve", false, "run the multi-job scheduler service: execute jobs submitted via the sched!submit bag")
	debugAddr := flag.String("debug", "", "-serve: address for the /metrics and /debug HTTP surface (default 127.0.0.1:6066; \"off\" disables)")
	submitMode := flag.Bool("submit", false, "submit a job to a -serve process and wait for its result")
	name := flag.String("name", "", "-submit: unique job name (also its bag namespace)")
	weight := flag.Int("weight", 0, "-submit: fair-share weight (0 = default)")
	flag.Parse()

	addrs := map[string]string{}
	for _, kv := range strings.Split(*storageFlag, ",") {
		if kv == "" {
			continue
		}
		parts := strings.SplitN(kv, "=", 2)
		if len(parts) != 2 {
			log.Fatalf("bad -storage entry %q (want name=addr)", kv)
		}
		addrs[parts[0]] = parts[1]
	}
	if len(addrs) == 0 {
		log.Fatal("no storage nodes; pass -storage name=addr,...")
	}
	names := make([]string, 0, len(addrs))
	for n := range addrs {
		names = append(names, n)
	}
	sort.Strings(names)

	client := transport.NewTCPClient(addrs)
	defer client.Close()
	store, err := bag.NewStore(bag.Config{
		Nodes:     names,
		Client:    client,
		ChunkSize: 256 << 10,
	})
	if err != nil {
		log.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	if *serveMode {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		if err := serve(ctx, store, client, *computes, *slots, *debugAddr); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *submitMode {
		if *name == "" {
			log.Fatal("-submit requires -name")
		}
		req := jobRequest{Name: *name, Job: *job, Records: *records,
			Skew: *skew, Parts: *parts, Weight: *weight}
		if req.Job == "clicklog" {
			req.Job = "sqsum" // served kinds are sqsum, groupby, and query
		}
		if err := submitAndWait(ctx, store, req); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *streamMode {
		runStream(ctx, store, names, *records, *windows, *skew, *computes, *slots, *parts)
		return
	}

	switch *job {
	case "groupby":
		runGroupBy(ctx, store, names, *records, *skew, *computes, *slots, *parts)
		return
	case "query":
		runQuery(ctx, store, names, *records, *skew, *computes, *slots, *parts)
		return
	case "clicklog":
	default:
		log.Fatalf("unknown -job %q (valid: clicklog groupby query; with -submit: sqsum groupby)", *job)
	}

	const regions, hostBits = 16, 12
	fmt.Printf("generating %d clicks (s=%.1f), loading onto %d storage nodes...\n",
		*records, *skew, len(names))
	gen := workload.ClickLogGen{S: *skew, Regions: regions, UniquePerRegion: 1 << hostBits, Seed: 42}
	ips := gen.Generate(*records)
	want := workload.DistinctPerRegion(ips, regions)
	if err := apps.LoadClickLog(ctx, store, ips); err != nil {
		log.Fatal(err)
	}

	cluster := core.NewClusterOverStore(store, runConfig(*computes, *slots))
	start := time.Now()
	if err := cluster.Run(ctx, apps.ClickLogApp(regions, hostBits, false)); err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	defer cluster.Shutdown()

	got, err := apps.ClickLogCounts(ctx, store, regions)
	if err != nil {
		log.Fatal(err)
	}
	bad := 0
	for r := range want {
		if got[r] != want[r] {
			fmt.Printf("region %s: got %d want %d\n", workload.RegionName(r), got[r], want[r])
			bad++
		}
	}
	fmt.Printf("clicklog on %d remote storage nodes: %d/%d regions correct in %v\n",
		len(names), regions-bad, regions, elapsed)
	fmt.Printf("master stats: %+v\n", cluster.Master().Stats())
	if bad > 0 {
		log.Fatal("verification failed")
	}
}

// runGroupBy executes the skew-aware shuffle groupby against the remote
// storage tier: partition bags and OpSketch pushes all travel over TCP.
func runGroupBy(ctx context.Context, store *bag.Store, names []string, records int, skew float64, computes, slots, parts int) {
	fmt.Printf("generating %d tuples (s=%.1f), loading onto %d storage nodes...\n",
		records, skew, len(names))
	tuples := workload.ZipfTuples(records, 64, skew, 9)
	if err := apps.LoadGroupBy(ctx, store, tuples); err != nil {
		log.Fatal(err)
	}

	cluster := core.NewClusterOverStore(store, runConfig(computes, slots))
	app := apps.GroupByApp(parts, true, 0, 0)
	start := time.Now()
	if err := cluster.Run(ctx, app); err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	defer cluster.Shutdown()

	got, err := apps.CollectGroupBy(ctx, store)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("groupby on %d remote storage nodes: %d keys in %v\n", len(names), len(got), elapsed)
	fmt.Printf("master stats: %+v\n", cluster.Master().Stats())
	if err := checkGroupBy(got, tuples); err != nil {
		log.Fatalf("verification failed: %v", err)
	}
}

// checkGroupBy compares a groupby's merged result with the serial groupby
// of its input, counts and distinct estimates exactly, and names the first
// key (in key order) that differs.
func checkGroupBy(got map[uint64]apps.GroupByResult, tuples []workload.Tuple) error {
	want := apps.SerialGroupBy(tuples)
	if len(got) != len(want) {
		return fmt.Errorf("%d keys, want %d", len(got), len(want))
	}
	for _, k := range slices.Sorted(maps.Keys(want)) {
		if g, ok := got[k]; !ok || g != want[k] {
			return fmt.Errorf("key %d: got %+v, want %+v", k, g, want[k])
		}
	}
	return nil
}

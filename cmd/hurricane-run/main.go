// Command hurricane-run executes Hurricane jobs against standalone
// hurricane-storage servers over TCP: compute nodes and the application
// masters run in this process, all bags live on the remote storage tier.
//
// Usage:
//
//	hurricane-storage -addr 127.0.0.1:7070 &
//	hurricane-storage -addr 127.0.0.1:7071 &
//	hurricane-run -storage storage-0=127.0.0.1:7070,storage-1=127.0.0.1:7071 \
//	    -job groupby -records 200000 -skew 1.0
//
// -job names one of five kinds, the same in every mode: sqsum (square
// and sum a range of integers), clicklog (the paper's ClickLog
// application), groupby (the skew-aware shuffle groupby, whose
// partitioned bags, producer sketches and clones of hot-partition
// consumers run against the remote tier), query (the planner-compiled
// groupby) and join (a planner-compiled hash join that the planner fuses
// into the probe scan, every worker reading the build relation, so
// clones split the skewed probe chunk by chunk). Every job runs under
// its -name (default <kind>-<8 hex digits>) as its bag namespace, is
// verified against a serial answer computed in this process, and is
// discarded after the check, pass or fail: a direct run leaves no bag
// on the storage tier.
//
// Streaming mode: with -stream the process runs the continuous-ingestion
// subsystem against the remote storage tier — a drifting Zipf click-log
// source cut into event-time windows (-windows), each executed as a DAG
// groupby job whose partitioned edge is warm-started from the previous
// window's skew memory. Every window is verified against the serial
// groupby of its clicks and then discarded:
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
// to the result line otherwise). The planner's kinds, query and join,
// carry an EXPLAIN ANALYZE that renders the compiled physical plan
// annotated with the measured execution. The server keeps its 8 most
// recent finished jobs, bags and all, for these pages, discards the
// oldest kept job as each newer one finishes, and discards the rest on a
// clean exit (interrupt).
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
	"strings"
	"time"

	"repro/internal/bag"
	"repro/internal/core"
	"repro/internal/transport"
)

// runConfig is the cluster every mode of this command runs on: the
// engine's defaults at a cadence that suits jobs lasting seconds, not
// hours. A mode adds only what it alone needs.
func runConfig(computes, slots int) core.ClusterConfig {
	return core.ClusterConfig{
		ComputeNodes: computes,
		SlotsPerNode: slots,
		Master: core.MasterConfig{
			CloneInterval: 20 * time.Millisecond,
		},
		Node: core.NodeConfig{
			MonitorInterval:   25 * time.Millisecond,
			OverloadThreshold: 0.5,
		},
	}
}

func main() {
	storageFlag := flag.String("storage", "", "comma-separated name=addr storage nodes")
	job := flag.String("job", "clicklog", "job kind, the same in every mode: "+kindNames())
	records := flag.Int("records", 200000, "records to generate")
	skew := flag.Float64("skew", 1.0, "zipf skew s")
	computes := flag.Int("computes", 4, "compute nodes in this process")
	slots := flag.Int("slots", 2, "worker slots per compute node")
	parts := flag.Int("parts", 4, "base shuffle partitions")
	streamMode := flag.Bool("stream", false, "continuous ingestion: run a drifting Zipf click-log stream as event-time windows against the remote storage tier")
	windows := flag.Int("windows", 8, "-stream: number of event-time windows")
	serveMode := flag.Bool("serve", false, "run the multi-job scheduler service: execute jobs submitted via the sched!submit bag")
	debugAddr := flag.String("debug", "127.0.0.1:6066", "-serve: address for the /metrics and /debug HTTP surface (\"off\" disables)")
	submitMode := flag.Bool("submit", false, "submit a job to a -serve process and wait for its result")
	name := flag.String("name", "", "unique job name, also its bag namespace (default <job>-<8 hex digits>)")
	weight := flag.Int("weight", 0, "fair-share weight (0 = default)")
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
	names := slices.Sorted(maps.Keys(addrs))

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
	if *streamMode {
		runStream(ctx, store, names, *records, *windows, *skew, *computes, *slots, *parts)
		return
	}

	req := jobRequest{Name: *name, Job: *job, Records: *records,
		Skew: *skew, Parts: *parts, Weight: *weight}
	if req.Name == "" {
		id, err := newSubmissionID()
		if err != nil {
			log.Fatal(err)
		}
		req.Name = req.Job + "-" + id[:8]
	}
	if *submitMode {
		if err := submitAndWait(ctx, store, req); err != nil {
			log.Fatal(err)
		}
		return
	}
	res := runDirect(ctx, store, runConfig(*computes, *slots), req)
	fmt.Println(res)
	if !res.OK {
		log.Fatal("job failed")
	}
}

// runDirect runs req on a cluster of its own over store and releases the
// job after the check, pass or fail, so a direct run leaves no bag behind.
func runDirect(ctx context.Context, store *bag.Store, cfg core.ClusterConfig, req jobRequest) jobResult {
	cluster := core.NewClusterOverStore(store, cfg)
	defer cluster.Shutdown()
	h, res := runJob(ctx, cluster, req)
	if h != nil {
		if err := h.Discard(ctx); err != nil {
			res.OK = false
			res.Err = strings.TrimSpace(res.Err + " discard: " + err.Error())
		}
	}
	return res
}

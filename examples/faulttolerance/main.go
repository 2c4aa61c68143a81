// Fault tolerance: the paper's §4.4 mechanisms under live fire — a silent
// compute-node crash mid-job (heartbeat-timeout detection, then task
// restart via the running work bag), a master crash (state replay from the
// done work bag), and a storage-node crash under 2× replication (client
// failover; the replicas agree on which chunk ids are taken) — all in one
// run that still produces the exact answer.
//
// Run with: go run ./examples/faulttolerance
package main

import (
	"context"
	"fmt"
	"log"
	"sync/atomic"
	"time"

	"repro/hurricane"
)

func main() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	cluster, err := hurricane.NewCluster(hurricane.ClusterConfig{
		StorageNodes: 6,
		ComputeNodes: 4,
		SlotsPerNode: 2,
		Replication:  2, // tolerate one storage-node failure
		Master: hurricane.MasterConfig{
			CloneInterval: 10 * time.Millisecond,
		},
		Node: hurricane.NodeConfig{
			MonitorInterval: 10 * time.Millisecond,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Shutdown()

	var processed atomic.Int64
	app := hurricane.NewApp("ft")
	app.SourceBag("in").Bag("mid").Bag("out")
	app.AddTask(hurricane.TaskSpec{
		Name:    "work",
		Inputs:  []string{"in"},
		Outputs: []string{"mid"},
		Run: func(tc *hurricane.TaskCtx) error {
			w := hurricane.NewWriter(tc, 0, hurricane.Int64Of)
			return hurricane.ForEach(tc, 0, hurricane.Int64Of, func(v int64) error {
				// A little CPU per record keeps the job alive long
				// enough for the crash schedule below.
				x := v
				for i := 0; i < 300; i++ {
					x = x*31 + 1
				}
				if x == 42 {
					return fmt.Errorf("impossible")
				}
				processed.Add(1)
				return w.Write(v)
			})
		},
	})
	app.AddTask(hurricane.TaskSpec{
		Name:    "sum",
		Inputs:  []string{"mid"},
		Outputs: []string{"out"},
		Merge:   hurricane.MergeSum(),
		Run: func(tc *hurricane.TaskCtx) error {
			var total int64
			if err := hurricane.ForEach(tc, 0, hurricane.Int64Of, func(v int64) error {
				total += v
				return nil
			}); err != nil {
				return err
			}
			return hurricane.NewWriter(tc, 0, hurricane.Int64Of).Write(total)
		},
	})

	const n = 300000
	vals := make([]int64, n)
	var want int64
	for i := range vals {
		vals[i] = int64(i)
		want += int64(i)
	}
	store := cluster.Store()
	if err := hurricane.Load(ctx, store, "in", hurricane.Int64Of, vals); err != nil {
		log.Fatal(err)
	}
	if err := hurricane.Seal(ctx, store, "in"); err != nil {
		log.Fatal(err)
	}

	job, err := cluster.SubmitJob(ctx, app, hurricane.JobConfig{Raw: true})
	if err != nil {
		log.Fatal(err)
	}

	waitProgress := func(target int64) {
		for processed.Load() < target && ctx.Err() == nil {
			time.Sleep(time.Millisecond)
		}
	}

	waitProgress(n / 20)
	fmt.Printf("t+%-4d crash storage node storage-5 (replication handles it)\n", processed.Load())
	if err := cluster.CrashStorageNode("storage-5"); err != nil {
		log.Fatal(err)
	}

	waitProgress(n / 10)
	// The crash is silent: the master learns of it only when the node's
	// heartbeats stop. The victim runs a worker of "work", which never
	// reports done, so the task stays open until the master recovers it.
	var victim string
	for victim == "" && ctx.Err() == nil {
		if nodes := job.Master().RunningOn("work"); len(nodes) > 0 {
			victim = nodes[0]
		}
		time.Sleep(time.Millisecond)
	}
	fmt.Printf("t+%-4d crash compute node %s (its tasks restart)\n", processed.Load(), victim)
	if err := cluster.CrashComputeNode(victim); err != nil {
		log.Fatal(err)
	}
	crashed := time.Now()
	for job.Master().Stats().Recoveries == 0 && ctx.Err() == nil {
		time.Sleep(time.Millisecond)
	}
	fmt.Printf("       silence detected and tasks restarted after %v\n", time.Since(crashed).Round(time.Millisecond))

	waitProgress(processed.Load() + n/10)
	fmt.Printf("t+%-4d crash the application master (replay from done bag)\n", processed.Load())
	job.CrashMaster()
	time.Sleep(20 * time.Millisecond)
	job.RecoverMaster(ctx)
	fmt.Println("       master recovered")

	if err := job.Wait(ctx); err != nil {
		log.Fatal(err)
	}
	out, err := hurricane.Collect(ctx, store, "out", hurricane.Int64Of)
	if err != nil {
		log.Fatal(err)
	}
	var got int64
	for _, v := range out {
		got += v
	}
	fmt.Printf("\nfinal sum %d (expected %d) — processed %d records for %d inputs\n",
		got, want, processed.Load(), n)
	fmt.Printf("master stats: %+v\n", job.Master().Stats())
	if got != want {
		log.Fatal("WRONG RESULT")
	}
	fmt.Println("survived storage, compute, and master failures with the exact answer")
}

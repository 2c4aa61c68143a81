package core

import (
	"context"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bag"
	"repro/internal/chunk"
	"repro/internal/shuffle"
	"repro/internal/transport"
)

func testClusterConfig() ClusterConfig {
	return ClusterConfig{
		StorageNodes: 4,
		ComputeNodes: 4,
		SlotsPerNode: 2,
		ChunkSize:    1 << 10,
		Node: NodeConfig{
			MonitorInterval: 4 * time.Millisecond,
		},
		Master: MasterConfig{
			CloneInterval: 5 * time.Millisecond,
		},
	}
}

// loadInts loads n int64 records into a source bag and seals it.
func loadInts(t *testing.T, ctx context.Context, store *bag.Store, bagName string, n int) {
	t.Helper()
	h := store.Bag(bagName)
	w := chunk.NewTypedWriter[int64](chunk.Int64Codec{}, store.ChunkSize(), func(c chunk.Chunk) error {
		return h.Insert(ctx, c)
	})
	for i := 0; i < n; i++ {
		if err := w.Write(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := store.Seal(ctx, bagName); err != nil {
		t.Fatal(err)
	}
}

// sumApp builds a two-stage pipeline: identity copy then sum-with-merge.
// The copy stage busy-loops per record so runs last long enough for fault
// injection. processed counts records seen by the copy stage (>= n after
// restarts).
func sumApp(processed *atomic.Int64) *App {
	open := make(chan struct{})
	close(open)
	return gatedSumApp(processed, open)
}

// gatedSumApp is sumApp whose copy workers, having drained their input,
// finish only once gate is closed: until then every node that ran one holds
// work the master has not seen completed.
func gatedSumApp(processed *atomic.Int64, gate <-chan struct{}) *App {
	app := NewApp("fault")
	app.SourceBag("in").Bag("mid").Bag("out")
	app.AddTask(TaskSpec{
		Name:    "copy",
		Inputs:  []string{"in"},
		Outputs: []string{"mid"},
		Run: func(tc *TaskCtx) error {
			w := chunk.NewWriter(1<<10, func(c chunk.Chunk) error { return tc.Insert(0, c) })
			for {
				c, err := tc.Remove(0)
				if err == bag.ErrEmpty {
					select {
					case <-gate:
						return w.Flush()
					case <-tc.Context().Done():
						return tc.Context().Err()
					}
				}
				if err != nil {
					return err
				}
				r := chunk.NewReader(c)
				for r.Remaining() {
					rec, err := r.Next()
					if err != nil {
						return err
					}
					// Simulated per-record work, interruptible.
					for i := 0; i < 50; i++ {
						if tc.Context().Err() != nil {
							return tc.Context().Err()
						}
					}
					processed.Add(1)
					if err := w.Append(rec); err != nil {
						return err
					}
				}
			}
		},
	})
	app.AddTask(TaskSpec{
		Name:    "sum",
		Inputs:  []string{"mid"},
		Outputs: []string{"out"},
		Merge: func(tc *TaskCtx) error {
			var total int64
			for i := 0; i < tc.NumInputs(); i++ {
				for {
					c, err := tc.Remove(i)
					if err == bag.ErrEmpty {
						break
					}
					if err != nil {
						return err
					}
					r := chunk.NewReader(c)
					for r.Remaining() {
						rec, _ := r.Next()
						v, _, err := (chunk.Int64Codec{}).Decode(rec)
						if err != nil {
							return err
						}
						total += v
					}
				}
			}
			var buf []byte
			buf = (chunk.Int64Codec{}).Encode(buf, total)
			w := chunk.NewWriter(1<<10, func(c chunk.Chunk) error { return tc.Insert(0, c) })
			if err := w.Append(buf); err != nil {
				return err
			}
			return w.Flush()
		},
		Run: func(tc *TaskCtx) error {
			var total int64
			for {
				c, err := tc.Remove(0)
				if err == bag.ErrEmpty {
					break
				}
				if err != nil {
					return err
				}
				r := chunk.NewReader(c)
				for r.Remaining() {
					rec, _ := r.Next()
					v, _, err := (chunk.Int64Codec{}).Decode(rec)
					if err != nil {
						return err
					}
					total += v
				}
			}
			var buf []byte
			buf = (chunk.Int64Codec{}).Encode(buf, total)
			w := chunk.NewWriter(1<<10, func(c chunk.Chunk) error { return tc.Insert(0, c) })
			if err := w.Append(buf); err != nil {
				return err
			}
			return w.Flush()
		},
	})
	return app
}

// readSum collects the single int64 result from the out bag.
func readSum(t *testing.T, ctx context.Context, store *bag.Store) int64 {
	t.Helper()
	return readSumBag(t, ctx, store, "out")
}

// readSumBag collects the int64 sum from a named (possibly namespaced)
// result bag.
func readSumBag(t *testing.T, ctx context.Context, store *bag.Store, bagName string) int64 {
	t.Helper()
	sc := store.Scanner(bagName)
	var total int64
	for {
		c, err := sc.Next(ctx)
		if err == bag.ErrAgain || err == bag.ErrEmpty {
			return total
		}
		if err != nil {
			t.Fatal(err)
		}
		r := chunk.NewReader(c)
		for r.Remaining() {
			rec, _ := r.Next()
			v, _, err := (chunk.Int64Codec{}).Decode(rec)
			if err != nil {
				t.Fatal(err)
			}
			total += v
		}
	}
}

// TestComputeNodeCrashByHeartbeat crashes a compute node running the copy
// task mid-run, on the default master config. Nothing tells the master:
// it must detect the silence itself via the heartbeat timeout, restart the
// task, and the job must still produce the exact answer.
//
// The tests that wait out a failure timeout run in parallel with each
// other: the wait is idle.
func TestComputeNodeCrashByHeartbeat(t *testing.T) {
	t.Parallel()
	// No copy worker finishes before the crash: a worker that RunningOn
	// names could otherwise complete before the timeout expires, leaving
	// the crashed node nothing to recover.
	t.Run("gated", func(t *testing.T) { t.Parallel(); crashCopyNode(t, true) })
	// The healthy copy workers drain the input while the victim's worker,
	// killed mid-copy, holds the task open until the master recovers it.
	t.Run("ungated mid-copy", func(t *testing.T) { t.Parallel(); crashCopyNode(t, false) })
}

// crashCopyNode runs gatedSumApp, its gate closed only after the crash
// if gated, and crashes a node that RunningOn names for the copy task once
// a tenth of the input is copied.
func crashCopyNode(t *testing.T, gated bool) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cluster, err := NewCluster(testClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	const n = 20000
	var processed atomic.Int64
	gate := make(chan struct{})
	if !gated {
		close(gate)
	}
	app := gatedSumApp(&processed, gate)
	loadInts(t, ctx, cluster.Store(), "in", n)
	if err := cluster.Start(ctx, app); err != nil {
		t.Fatal(err)
	}
	for processed.Load() < n/10 {
		if ctx.Err() != nil {
			t.Fatal("timed out waiting for progress")
		}
		time.Sleep(time.Millisecond)
	}
	if err := cluster.CrashComputeNode(runningNode(t, ctx, cluster.Master(), "copy")); err != nil {
		t.Fatal(err)
	}
	if gated {
		close(gate)
	}
	if err := cluster.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	want := int64(n) * (n - 1) / 2
	if got := readSum(t, ctx, cluster.Store()); got != want {
		t.Fatalf("sum = %d, want %d (processed %d, stats %+v)", got, want,
			processed.Load(), cluster.Master().Stats())
	}
	if cluster.Master().Stats().Recoveries == 0 {
		t.Error("expected heartbeat-timeout recovery")
	}
}

// runningNode waits for the running bag to show a worker of spec and names
// that worker's node.
func runningNode(t *testing.T, ctx context.Context, m *Master, spec string) string {
	t.Helper()
	var node string
	waitFor(t, ctx, "running-bag evidence", func() bool {
		if nodes := m.RunningOn(spec); len(nodes) > 0 {
			node = nodes[0]
		}
		return node != ""
	})
	return node
}

// TestNoRecoveryWithoutCrash: a live node is never suspected. On one P,
// every slot computes flat out while the nodes owe a heartbeat every
// 500µs, for longer than twice the failure timeout's floor: however late
// the nodes' ticks land, no node is declared dead.
func TestNoRecoveryWithoutCrash(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := testClusterConfig()
	cfg.Node.MonitorInterval = time.Millisecond
	if got := failTimeout(cfg.Node.beat()); got != failFloor {
		t.Fatalf("failure timeout %v, want the floor %v", got, failFloor)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cluster, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	// Every worker, the first and each clone, spins until the deadline and
	// only then copies its share of the input.
	deadline := time.Now().Add(2*failFloor + 100*time.Millisecond)
	app := NewApp("spin")
	app.SourceBag("in").Bag("out")
	app.AddTask(TaskSpec{Name: "spin", Inputs: []string{"in"}, Outputs: []string{"out"},
		Run: func(tc *TaskCtx) error {
			for time.Now().Before(deadline) {
				if err := tc.Context().Err(); err != nil {
					return err
				}
			}
			for {
				c, err := tc.Remove(0)
				if err == bag.ErrEmpty {
					return nil
				}
				if err != nil {
					return err
				}
				if err := tc.Insert(0, c); err != nil {
					return err
				}
			}
		}})
	loadInts(t, ctx, cluster.Store(), "in", 4000)
	if err := cluster.Run(ctx, app); err != nil {
		t.Fatal(err)
	}
	if time.Now().Before(deadline) {
		t.Fatal("the job ended before its workers stopped spinning")
	}
	stats := cluster.Master().Stats()
	if stats.Recoveries != 0 {
		t.Errorf("%d recoveries without a crash (stats %+v)", stats.Recoveries, stats)
	}
	if stats.Clones == 0 {
		t.Errorf("no clone: one worker spun, not every slot (stats %+v)", stats)
	}
}

// TestComputeNodeCrashBeforeFirstHeartbeat crashes the node running the
// copy task before that node has sent the master a single heartbeat. The
// master must still suspect the node from the running bag's evidence and
// recover its task after the failure timeout, not wait forever for a
// heartbeat it would time out.
func TestComputeNodeCrashBeforeFirstHeartbeat(t *testing.T) {
	cfg := testClusterConfig()
	cfg.Node.MonitorInterval = 600 * time.Millisecond // a heartbeat every 300ms
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cluster, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	const n = 4000
	var processed atomic.Int64
	crashed := make(chan struct{})
	app := gatedSumApp(&processed, crashed)
	loadInts(t, ctx, cluster.Store(), "in", n)
	if err := cluster.Start(ctx, app); err != nil {
		t.Fatal(err)
	}
	var victim string
	for victim == "" {
		if ctx.Err() != nil {
			t.Fatal("timed out waiting for running-bag evidence")
		}
		if nodes := cluster.Master().RunningOn("copy"); len(nodes) > 0 {
			victim = nodes[0]
		}
		time.Sleep(100 * time.Microsecond)
	}
	if err := cluster.CrashComputeNode(victim); err != nil {
		t.Fatal(err)
	}
	close(crashed)
	if err := cluster.Wait(ctx); err != nil {
		t.Fatalf("job never recovered from the silent node: %v", err)
	}
	want := int64(n) * (n - 1) / 2
	if got := readSum(t, ctx, cluster.Store()); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
	if cluster.Master().Stats().Recoveries == 0 {
		t.Error("expected heartbeat-timeout recovery")
	}
}

// TestMasterCrashRecovery stops the master mid-run, starts a fresh one,
// and checks that it rebuilds state from the work bags and completes the
// job exactly once.
func TestMasterCrashRecovery(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cluster, err := NewCluster(testClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	const n = 20000
	var processed atomic.Int64
	app := sumApp(&processed)
	loadInts(t, ctx, cluster.Store(), "in", n)
	if err := cluster.Start(ctx, app); err != nil {
		t.Fatal(err)
	}
	for processed.Load() < n/10 {
		if ctx.Err() != nil {
			t.Fatal("timed out waiting for progress")
		}
		time.Sleep(time.Millisecond)
	}
	cluster.Job(app.Name()).CrashMaster()
	// Compute nodes keep draining the ready bag during the outage.
	time.Sleep(20 * time.Millisecond)
	cluster.Job(app.Name()).RecoverMaster(ctx)
	if err := cluster.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	want := int64(n) * (n - 1) / 2
	if got := readSum(t, ctx, cluster.Store()); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
	// Exactly-once: every record processed exactly one time (no compute
	// failures here, so no restarts should have occurred).
	if processed.Load() != n {
		t.Errorf("processed %d records, want exactly %d", processed.Load(), n)
	}
	t.Run("after a seeded master's first blueprint", func(t *testing.T) {
		recoverSeededMaster(t, ctx, 4, 2)
	})
}

// recoverSeededMaster runs slowGroupApp with a seed that spreads its hot
// key over two isolation bags, crashes the job's first master as soon as
// it has pushed its first blueprint, and recovers it. The successor must
// run the edge over the seed's four leaves — the map is the submitted
// job's, not something a master keeps or republishes — and the job's
// output must be exact. It returns the cluster, shut down with t.
func recoverSeededMaster(t *testing.T, ctx context.Context, nodes, slots int) *Cluster {
	t.Helper()
	store, f := storeBehind(t)
	pushed := counted(f, transport.Match{Op: transport.OpInsert, Bag: "!ready#"})
	cfg := testClusterConfig()
	cfg.ComputeNodes, cfg.SlotsPerNode = nodes, slots
	c := NewClusterOverStore(store, cfg)
	t.Cleanup(c.Shutdown)

	const n = 4000
	loadInts(t, ctx, store, "in", n)
	hot := chunk.Int64Codec{}.Encode(nil, 0) // three records in four
	seed := shuffle.BaseMap("shuf", 2)
	seed.Version = 2
	seed.Isolated = []shuffle.Isolation{{Hash: shuffle.KeyHash(hot), Fan: 2, Key: hot}}
	var processed atomic.Int64
	// 10 µs a record in the slow stage: the job outlasts the wait for its
	// first blueprint by far.
	h, err := c.SubmitJob(ctx, slowGroupApp(&processed, 10_000), JobConfig{
		Raw: true, Seeds: map[string]*shuffle.PartitionMap{"shuf": seed},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, ctx, "the first blueprint", func() bool { return pushed.Load() > 0 })
	h.CrashMaster()
	m := h.RecoverMaster(ctx)
	if m == nil {
		t.Fatal("no master recovered")
	}
	if err := h.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if leaves := m.physicalBags("shuf"); len(leaves) != 4 || !slices.Equal(leaves, seed.Leaves()) {
		t.Errorf("successor ran the edge over %v, want the seed's %v", leaves, seed.Leaves())
	}
	if got, want := readSumBag(t, ctx, store, "out"), int64(n)*(n-1)/2; got != want || processed.Load() != n {
		t.Errorf("sum = %d over %d records, want %d over %d", got, processed.Load(), want, n)
	}
	return c
}

// TestStorageNodeFailover runs with 2× replication, crashes a storage
// node mid-run, and checks the job completes correctly from backups.
func TestStorageNodeFailover(t *testing.T) {
	cfg := testClusterConfig()
	cfg.Replication = 2
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cluster, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	const n = 20000
	var processed atomic.Int64
	app := sumApp(&processed)
	loadInts(t, ctx, cluster.Store(), "in", n)
	if err := cluster.Start(ctx, app); err != nil {
		t.Fatal(err)
	}
	for processed.Load() < n/10 {
		if ctx.Err() != nil {
			t.Fatal("timed out waiting for progress")
		}
		time.Sleep(time.Millisecond)
	}
	if err := cluster.CrashStorageNode("storage-2"); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	want := int64(n) * (n - 1) / 2
	if got := readSum(t, ctx, cluster.Store()); got != want {
		t.Fatalf("sum = %d, want %d (processed %d records, stats %+v)",
			got, want, processed.Load(), cluster.Master().Stats())
	}
}

// TestElasticCompute adds a compute node mid-run and gracefully removes
// one that ran copy work; the job must complete correctly (§3.4). The
// removed node falls silent but, its workers drained, holds no work: the
// job stays open past the failure timeout after the removal, and the
// master must not declare the node dead.
func TestElasticCompute(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cfg := testClusterConfig()
	cluster, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	const n = 20000
	var processed atomic.Int64
	app := sumApp(&processed)
	// The sum stage starts only once held is closed, so the job outlives
	// the removal by as long as the test likes.
	held := make(chan struct{})
	sum := app.Task("sum")
	run := sum.Run
	sum.Run = func(tc *TaskCtx) error {
		select {
		case <-held:
		case <-tc.Context().Done():
			return tc.Context().Err()
		}
		return run(tc)
	}
	loadInts(t, ctx, cluster.Store(), "in", n)
	if err := cluster.Start(ctx, app); err != nil {
		t.Fatal(err)
	}
	for processed.Load() < n/20 {
		if ctx.Err() != nil {
			t.Fatal("timed out waiting for progress")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := cluster.AddComputeNode(ctx); err != nil {
		t.Fatal(err)
	}
	if err := cluster.RemoveComputeNode(runningNode(t, ctx, cluster.Master(), "copy")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(failTimeout(cfg.Node.beat()) + 2*fallbackInterval)
	close(held)
	if err := cluster.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	want := int64(n) * (n - 1) / 2
	if got := readSum(t, ctx, cluster.Store()); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
	if processed.Load() != n {
		t.Errorf("processed %d records, want exactly %d (graceful removal must not restart)", processed.Load(), n)
	}
	if r := cluster.Master().Stats().Recoveries; r != 0 {
		t.Errorf("%d recoveries: the removed node was declared dead", r)
	}
}

// TestAddStorageNode adds a storage node mid-run; new bag handles spread
// data over the larger cluster and the job completes.
func TestAddStorageNode(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cluster, err := NewCluster(testClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	const n = 10000
	var processed atomic.Int64
	app := sumApp(&processed)
	loadInts(t, ctx, cluster.Store(), "in", n)
	if err := cluster.Start(ctx, app); err != nil {
		t.Fatal(err)
	}
	name := cluster.AddStorageNode()
	if name == "" {
		t.Fatal("no storage node added")
	}
	if err := cluster.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	want := int64(n) * (n - 1) / 2
	if got := readSum(t, ctx, cluster.Store()); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
}

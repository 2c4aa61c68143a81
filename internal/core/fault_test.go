package core

import (
	"context"
	"slices"
	"strings"
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
			MonitorInterval:   5 * time.Millisecond,
			HeartbeatInterval: 2 * time.Millisecond,
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

// TestComputeNodeCrashRecovery crashes a compute node mid-run and checks
// that the job still produces the correct result via task restart.
func TestComputeNodeCrashRecovery(t *testing.T) {
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
	// Let the copy stage get going, then kill a node.
	for processed.Load() < n/10 {
		if ctx.Err() != nil {
			t.Fatal("timed out waiting for progress")
		}
		time.Sleep(time.Millisecond)
	}
	if err := cluster.CrashComputeNode("compute-0", true); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	want := int64(n) * (n - 1) / 2
	if got := readSum(t, ctx, cluster.Store()); got != want {
		t.Fatalf("sum = %d, want %d (processed %d, stats %+v)", got, want,
			processed.Load(), cluster.Master().Stats())
	}
	stats := cluster.Master().Stats()
	if stats.Recoveries == 0 {
		t.Error("expected at least one recovery")
	}
	t.Logf("processed %d records (n=%d), stats %+v", processed.Load(), n, stats)
}

// TestComputeNodeCrashByHeartbeat exercises failure detection via
// heartbeat timeout rather than explicit notification.
func TestComputeNodeCrashByHeartbeat(t *testing.T) {
	cfg := testClusterConfig()
	cfg.Master.FailTimeout = 200 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cluster, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	const n = 20000
	var processed atomic.Int64
	// No copy worker finishes before the crash: a worker that RunningOn
	// names could otherwise complete before FailTimeout expires, leaving
	// the crashed node nothing to recover.
	crashed := make(chan struct{})
	app := gatedSumApp(&processed, crashed)
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
	// Crash a node that is running the copy task. notify=false: the master
	// must detect the silence itself via the heartbeat timeout.
	var victim string
	for victim == "" {
		if ctx.Err() != nil {
			t.Fatal("timed out waiting for running-bag evidence")
		}
		if nodes := cluster.Master().RunningOn("copy"); len(nodes) > 0 {
			victim = nodes[0]
		}
		time.Sleep(time.Millisecond)
	}
	if err := cluster.CrashComputeNode(victim, false); err != nil {
		t.Fatal(err)
	}
	close(crashed)
	if err := cluster.Wait(ctx); err != nil {
		t.Fatal(err)
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
	if err := cluster.Job(app.Name()).CrashMaster(); err != nil {
		t.Fatal(err)
	}
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
	pushed := &countedCalls{match: func(req *transport.Request) bool {
		return req.Op == transport.OpInsert && strings.Contains(req.Bag, "!ready#")
	}}
	store := storeBehind(t, func(tr transport.Client) transport.Client { pushed.Client = tr; return pushed })
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
		Raw: true, Retain: true, Seeds: map[string]*shuffle.PartitionMap{"shuf": seed},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, ctx, "the first blueprint", func() bool { return pushed.n.Load() > 0 })
	if err := h.CrashMaster(); err != nil {
		t.Fatal(err)
	}
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
	crashEnabled := true
	if crashEnabled {
		if err := cluster.CrashStorageNode("storage-2"); err != nil {
			t.Fatal(err)
		}
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
// another; the job must complete correctly (§3.4).
func TestElasticCompute(t *testing.T) {
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
	for processed.Load() < n/20 {
		if ctx.Err() != nil {
			t.Fatal("timed out waiting for progress")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := cluster.AddComputeNode(ctx); err != nil {
		t.Fatal(err)
	}
	if err := cluster.RemoveComputeNode("compute-3"); err != nil {
		t.Fatal(err)
	}
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

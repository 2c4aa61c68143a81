package core

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/transport"
)

// Every test of this package runs with the claim loops' fallback sweep
// stretched to a minute: dispatch is driven by wakes alone, and a wake
// that is never raised shows as a named test hanging, not as 50 ms of
// noise.
func TestMain(m *testing.M) {
	claimFallback = time.Minute
	os.Exit(m.Run())
}

// dispatchCluster is testClusterConfig cut down to one storage node and
// `nodes` compute nodes of one slot each.
func dispatchCluster(t *testing.T, nodes int, tune func(*ClusterConfig)) *Cluster {
	t.Helper()
	cfg := testClusterConfig()
	cfg.StorageNodes, cfg.ComputeNodes, cfg.SlotsPerNode = 1, nodes, 1
	if tune != nil {
		tune(&cfg)
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	return c
}

// noFallbackClaims asserts that no claim of the cluster's was found by the
// fallback sweep.
func noFallbackClaims(t *testing.T, c *Cluster) {
	t.Helper()
	if got := c.Observer().Counter("hurricane_core_fallback_claims_total").Value(); got != 0 {
		t.Errorf("hurricane_core_fallback_claims_total = %d, want 0: a claim rode the fallback timer", got)
	}
}

// sealedEmpty declares each named bag a sealed, empty source of the store.
func sealedEmpty(t *testing.T, ctx context.Context, c *Cluster, names ...string) {
	t.Helper()
	for _, n := range names {
		if err := c.Store().Seal(ctx, n); err != nil {
			t.Fatal(err)
		}
	}
}

// chainApp is k empty tasks in a row: stage i reads bag b<i-1> and writes b<i>.
func chainApp(name string, k int) *App {
	app := NewApp(name)
	app.SourceBag("b0")
	for i := 1; i <= k; i++ {
		app.Bag(fmt.Sprintf("b%d", i))
		app.AddTask(TaskSpec{
			Name: fmt.Sprintf("t%d", i), Inputs: []string{fmt.Sprintf("b%d", i-1)},
			Outputs: []string{fmt.Sprintf("b%d", i)}, Run: nop, NoClone: true,
		})
	}
	return app
}

// rendezvousApp is `tasks` independent tasks, each of which finishes only
// once `need` workers of the application have started: the job completes
// only if that many run at the same time.
func rendezvousApp(name string, tasks, need int, noClone bool, started *atomic.Int64) *App {
	app := NewApp(name)
	for i := 0; i < tasks; i++ {
		in, out := fmt.Sprintf("in%d", i), fmt.Sprintf("out%d", i)
		app.SourceBag(in).Bag(out)
		app.AddTask(TaskSpec{
			Name: fmt.Sprintf("t%d", i), Inputs: []string{in}, Outputs: []string{out}, NoClone: noClone,
			Run: func(tc *TaskCtx) error {
				started.Add(1)
				for started.Load() < int64(need) {
					select {
					case <-tc.Context().Done():
						return tc.Context().Err()
					case <-time.After(200 * time.Microsecond):
					}
				}
				return nil
			},
		})
	}
	return app
}

// gatesApp is one uncloneable task per gate, t0, t1, ...: a task counts
// itself started, then finishes when its gate is closed.
func gatesApp(name string, started *atomic.Int64, gates ...chan struct{}) *App {
	app := NewApp(name)
	for i, gate := range gates {
		in, out := fmt.Sprintf("in%d", i), fmt.Sprintf("out%d", i)
		app.SourceBag(in).Bag(out)
		app.AddTask(TaskSpec{
			Name: fmt.Sprintf("t%d", i), Inputs: []string{in}, Outputs: []string{out}, NoClone: true,
			Run: func(tc *TaskCtx) error {
				started.Add(1)
				select {
				case <-gate:
					return nil
				case <-tc.Context().Done():
					return tc.Context().Err()
				}
			},
		})
	}
	return app
}

// waitFor polls cond until it holds or ctx ends.
func waitFor(t *testing.T, ctx context.Context, what string, cond func() bool) {
	t.Helper()
	for !cond() {
		if ctx.Err() != nil {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestDispatchNeedsNoTimer: six stages on one slot are twelve hand-offs
// (a blueprint pushed, a slot freed), and each of them is a wake: the job
// finishes with the fallback sweep a minute away.
func TestDispatchNeedsNoTimer(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c := dispatchCluster(t, 1, nil)
	sealedEmpty(t, ctx, c, "b0")
	began := time.Now()
	if err := c.Run(ctx, chainApp("chain", 6)); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(began); took > time.Second {
		t.Errorf("6 empty stages took %v", took)
	}
	noFallbackClaims(t, c)
}

// TestDispatchCloneReachesIdleNode: a clone pushed while its task runs is
// claimed by the other, idle node — the job cannot finish otherwise.
func TestDispatchCloneReachesIdleNode(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c := dispatchCluster(t, 2, func(cfg *ClusterConfig) {
		cfg.Node.OverloadThreshold = 0.01 // the waiting worker signals
		cfg.Node.MonitorInterval = time.Millisecond
	})
	loadIntsBag(t, ctx, c.Store(), "in0", 8) // never read: a clone needs work left
	var started atomic.Int64
	if err := c.Run(ctx, rendezvousApp("clone", 1, 2, false, &started)); err != nil {
		t.Fatal(err)
	}
	if got := c.Master().Stats().Clones; got == 0 {
		t.Error("the task was never cloned")
	}
	noFallbackClaims(t, c)
}

// TestDispatchAddedNodeClaims: a blueprint waiting for a slot is claimed by
// a node added mid-job.
func TestDispatchAddedNodeClaims(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c := dispatchCluster(t, 1, nil)
	sealedEmpty(t, ctx, c, "in0", "in1")
	var started atomic.Int64
	if err := c.Start(ctx, rendezvousApp("grow", 2, 2, true, &started)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, ctx, "the first task", func() bool { return started.Load() == 1 })
	if _, err := c.AddComputeNode(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	noFallbackClaims(t, c)
}

// TestDispatchAcrossMasterRecovery: a blueprint the crashed master left
// unclaimed in the ready bag is claimed as soon as the slot frees — nothing
// but the worker's exit says so — and the recovered master sees the job
// through.
func TestDispatchAcrossMasterRecovery(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c := dispatchCluster(t, 1, nil)
	sealedEmpty(t, ctx, c, "in0", "in1")
	var started atomic.Int64
	gate := make(chan struct{})
	h, err := c.SubmitJob(ctx, gatesApp("recover", &started, gate, gate), JobConfig{Raw: true, Retain: true})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, ctx, "the first task", func() bool { return started.Load() == 1 })
	if err := h.CrashMaster(); err != nil {
		t.Fatal(err)
	}
	if h.RecoverMaster(ctx) == nil {
		t.Fatal("no master recovered")
	}
	close(gate)
	if err := h.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if started.Load() != 2 {
		t.Errorf("%d task bodies ran, want 2", started.Load())
	}
	noFallbackClaims(t, c)
	// A successor whose first tick adopts a map its predecessor left
	// half-published dispatches by wakes all the same.
	t.Run("between a map's publish and its announcement", func(t *testing.T) {
		noFallbackClaims(t, recoverFromCutPublish(t, ctx, 1, 1))
	})
}

// TestDispatchAfterResetResubmit: a job resubmitted under its
// predecessor's name — and so over the same ready bag — is dispatched by
// wakes like the first.
func TestDispatchAfterResetResubmit(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c := dispatchCluster(t, 1, nil)
	for round := 0; round < 2; round++ {
		h, err := c.SubmitJob(ctx, chainApp("chain", 3), JobConfig{Name: "w"})
		if err != nil {
			t.Fatal(err)
		}
		if round == 0 {
			sealedEmpty(t, ctx, c, h.Bag("b0"))
		}
		if err := h.Wait(ctx); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := h.Reset(ctx); err != nil {
			t.Fatal(err)
		}
	}
	noFallbackClaims(t, c)
}

// TestDispatchWhenSlotFreesForNeighbor: with both slots held by job a,
// fair-share job b's blueprint waits in its ready bag. One worker of a's
// exits — a goes on running, its master pushes nothing — and b starts on
// the freed slot and runs to the end.
func TestDispatchWhenSlotFreesForNeighbor(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c := dispatchCluster(t, 2, func(cfg *ClusterConfig) {
		cfg.Sched.Interval = time.Hour // no pass resamples demand meanwhile
	})
	var startedA atomic.Int64
	g0, g1 := make(chan struct{}), make(chan struct{})
	ha, err := c.SubmitJob(ctx, gatesApp("a", &startedA, g0, g1), JobConfig{Name: "a"})
	if err != nil {
		t.Fatal(err)
	}
	sealedEmpty(t, ctx, c, ha.Bag("in0"), ha.Bag("in1"))
	waitFor(t, ctx, "job a to hold both slots", func() bool { return startedA.Load() == 2 })
	hb, err := c.SubmitJob(ctx, chainApp("b", 2), JobConfig{Name: "b"})
	if err != nil {
		t.Fatal(err)
	}
	sealedEmpty(t, ctx, c, hb.Bag("b0"))
	time.Sleep(5 * time.Millisecond) // b's blueprint is pushed and finds no slot
	if hb.Stats().Running != 0 {
		t.Fatal("job b started with no slot free")
	}
	close(g0)
	if err := hb.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if ha.State() != sched.StateRunning {
		t.Errorf("job a is %s, want still running", ha.State())
	}
	close(g1)
	if err := ha.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	noFallbackClaims(t, c)
}

// TestDispatchWhenLeaseGateLifts: an idle node is turned away from job b's
// blueprint — b is at its share and job a looks starved — and no slot of
// b's frees anywhere. The gate lifts when the scheduling pass resamples a's
// demand, or when a finishes and its share goes to b; either says so.
func TestDispatchWhenLeaseGateLifts(t *testing.T) {
	for _, lift := range []string{"demand resampled", "neighbor finishes"} {
		t.Run(lift, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			c := dispatchCluster(t, 3, func(cfg *ClusterConfig) {
				cfg.Sched.Interval = time.Hour // the test makes the passes
			})
			var startedA atomic.Int64
			gate := make(chan struct{})
			ha, err := c.SubmitJob(ctx, gatesApp("a", &startedA, gate), JobConfig{Name: "a"})
			if err != nil {
				t.Fatal(err)
			}
			sealedEmpty(t, ctx, c, ha.Bag("in0"))
			waitFor(t, ctx, "job a's worker", func() bool { return startedA.Load() == 1 })
			// A sample taken before a's blueprint was claimed: of 3 slots a's
			// share is 2 once b arrives, so with demand 1 it looks starved.
			c.leases.SetDemand("a", 1)
			var startedB atomic.Int64
			hb, err := c.SubmitJob(ctx, rendezvousApp("b", 2, 2, true, &startedB), JobConfig{Name: "b"})
			if err != nil {
				t.Fatal(err)
			}
			sealedEmpty(t, ctx, c, hb.Bag("in0"), hb.Bag("in1"))
			waitFor(t, ctx, "job b's first worker", func() bool { return startedB.Load() == 1 })
			time.Sleep(5 * time.Millisecond)
			if got := startedB.Load(); got != 1 {
				t.Fatalf("%d workers of job b started past its share with a neighbor starved, want 1", got)
			}
			if lift == "demand resampled" {
				c.schedPass()
			} else {
				close(gate)
			}
			if err := hb.Wait(ctx); err != nil {
				t.Fatal(err)
			}
			if lift == "demand resampled" {
				close(gate)
			}
			if err := ha.Wait(ctx); err != nil {
				t.Fatal(err)
			}
			noFallbackClaims(t, c)
		})
	}
}

// TestDispatchOfResumedJob: a job submitted over work bags that already
// hold its blueprints — its first run's cluster went away before any was
// claimed — pushes nothing, and its nodes claim them all the same.
func TestDispatchOfResumedJob(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	first := dispatchCluster(t, 1, nil)
	var blocked, started atomic.Int64
	gate := make(chan struct{})
	defer close(gate)
	if _, err := first.SubmitJob(ctx, gatesApp("blocker", &blocked, gate), JobConfig{Name: "blocker"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, ctx, "the only slot to be taken", func() bool { return blocked.Load() == 1 })
	open := make(chan struct{})
	close(open)
	sealedEmpty(t, ctx, first, "in0", "in1")
	if err := first.Start(ctx, gatesApp("resumed", &started, open, open)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, ctx, "both blueprints in the ready bag", func() bool {
		st, err := first.Store().Sample(ctx, "resumed!ready")
		return err == nil && st.RemainingChunks() == 2
	})
	first.Shutdown()

	cfg := testClusterConfig()
	cfg.ComputeNodes, cfg.SlotsPerNode = 1, 1
	second := NewClusterOverStore(first.Store(), cfg)
	defer second.Shutdown()
	// Its node is up, and blocked by the time the resumed job arrives.
	sealedEmpty(t, ctx, second, "b0")
	if err := second.Run(ctx, chainApp("warm", 1)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	if err := second.Run(ctx, gatesApp("resumed", &started, open, open)); err != nil {
		t.Fatal(err)
	}
	if started.Load() != 2 {
		t.Errorf("%d task bodies ran, want 2", started.Load())
	}
	noFallbackClaims(t, second)
}

// TestRemoveComputeNodeWaitsOnTheWake: removing an idle node returns at
// once, and removing a busy one returns when its last worker exits — the
// job runs on elsewhere, so nothing but that exit says so. Neither sleeps,
// and with the fallback stretched neither could.
func TestRemoveComputeNodeWaitsOnTheWake(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c := dispatchCluster(t, 3, nil)
	var started atomic.Int64
	g0, g1 := make(chan struct{}), make(chan struct{})
	h, err := c.SubmitJob(ctx, gatesApp("g", &started, g0, g1), JobConfig{Name: "g"})
	if err != nil {
		t.Fatal(err)
	}
	sealedEmpty(t, ctx, c, h.Bag("in0"), h.Bag("in1"))
	waitFor(t, ctx, "both gated workers", func() bool {
		return len(h.Master().RunningOn("t0")) == 1 && len(h.Master().RunningOn("t1")) == 1
	})
	busy, other := h.Master().RunningOn("t0")[0], h.Master().RunningOn("t1")[0]
	for _, name := range c.ComputeNodeNames() {
		if name == busy || name == other {
			continue
		}
		began := time.Now()
		if err := c.RemoveComputeNode(name); err != nil {
			t.Fatal(err)
		}
		if took := time.Since(began); took > 500*time.Millisecond {
			t.Errorf("removing idle %s took %v", name, took)
		}
	}
	removed := make(chan error, 1)
	go func() { removed <- c.RemoveComputeNode(busy) }()
	select {
	case err := <-removed:
		t.Fatalf("busy node removed with its worker running (err %v)", err)
	case <-time.After(10 * time.Millisecond):
	}
	opened := time.Now()
	close(g0)
	select {
	case err := <-removed:
		if err != nil {
			t.Fatal(err)
		}
	case <-ctx.Done():
		t.Fatal("the busy node's removal never returned")
	}
	if took := time.Since(opened); took > 500*time.Millisecond {
		t.Errorf("removal returned %v after the last worker was let go", took)
	}
	close(g1)
	if err := h.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	noFallbackClaims(t, c)
}

// TestBroadcastWakeCost measures what the cluster's one broadcast wake
// costs where it is widest: with 16 idle nodes and 8 bound jobs, none of
// which has a blueprint ready, every raise sends each idle node once round
// every job's ready bag. It prints the removes per raise (go test -v) and
// holds them to that product; busy nodes poll nothing.
func TestBroadcastWakeCost(t *testing.T) {
	const idle, jobs, raises = 16, 8, 10
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// The removes on ready work bags are the task managers' claim polls.
	polls := &countedCalls{match: func(req *transport.Request) bool {
		return req.Op == transport.OpRemove && strings.Contains(req.Bag, "!ready")
	}}
	store := storeBehind(t, func(tr transport.Client) transport.Client { polls.Client = tr; return polls })
	cfg := testClusterConfig()
	cfg.ComputeNodes, cfg.SlotsPerNode = idle+jobs, 1
	c := NewClusterOverStore(store, cfg)
	defer c.Shutdown()
	var started atomic.Int64
	gate := make(chan struct{})
	var handles []*JobHandle
	for j := 0; j < jobs; j++ { // each job holds one slot and has nothing ready
		h, err := c.SubmitJob(ctx, gatesApp("bound", &started, gate), JobConfig{Name: fmt.Sprintf("bound%d", j)})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	waitFor(t, ctx, "every job's task", func() bool { return started.Load() == jobs })
	// settled waits until the claim loops have gone quiet and returns the
	// count of polls so far.
	settled := func() int64 {
		for last, since := polls.n.Load(), time.Now(); ; time.Sleep(time.Millisecond) {
			if now := polls.n.Load(); now != last {
				last, since = now, time.Now()
			} else if time.Since(since) > 20*time.Millisecond || ctx.Err() != nil {
				return last
			}
		}
	}
	before := settled()
	for i := 0; i < raises; i++ {
		c.wake.raise()
		settled()
	}
	perRaise := float64(settled()-before) / raises
	t.Logf("broadcast wake: %d idle nodes x %d bound jobs: %.1f ready-bag removes per raise (n=%d, %d storage slot)",
		idle, jobs, perRaise, raises, store.NumSlots())
	if limit := float64(idle * jobs * store.NumSlots()); perRaise == 0 || perRaise > limit {
		t.Errorf("%.1f removes per raise, want at most idle nodes x bound jobs = %v and some", perRaise, limit)
	}
	close(gate)
	for _, h := range handles {
		if err := h.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	noFallbackClaims(t, c)
}

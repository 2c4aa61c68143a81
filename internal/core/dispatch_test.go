package core

import (
	"context"
	"fmt"
	"os"
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
		// The waiting worker's own overload signal asks for the clone:
		// the signal path is under test, so clones are not forced.
		cfg.Node.OverloadThreshold = 0.01
		cfg.Node.MonitorInterval = time.Millisecond
	})
	loadInts(t, ctx, c.Store(), "in0", 8) // never read: a clone needs work left
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
	h, err := c.SubmitJob(ctx, gatesApp("recover", &started, gate, gate), JobConfig{Raw: true})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, ctx, "the first task", func() bool { return started.Load() == 1 })
	h.CrashMaster()
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
	// A successor that takes over a seeded job dispatches by wakes all
	// the same.
	t.Run("after a seeded master's first blueprint", func(t *testing.T) {
		noFallbackClaims(t, recoverSeededMaster(t, ctx, 1, 1))
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
	c := dispatchCluster(t, 2, nil)
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
// blueprint — b is at its share, and job a, below its share, has a
// blueprint no node has claimed yet — and no slot of b's frees anywhere.
// The gate lifts when a's blueprint is claimed, or when a finishes and its
// share goes to b; either says so. (a finishes by its submitter's cancel:
// a job that completes has claimed all its blueprints.)
func TestDispatchWhenLeaseGateLifts(t *testing.T) {
	for _, lift := range []string{"blueprint claimed", "neighbor finishes"} {
		t.Run(lift, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			// a's blueprint is on its way to a node: the reply of the
			// remove that claims it is held, so a's demand still counts it.
			store, f := storeBehind(t)
			held := f.Add(transport.Rule{
				Match: transport.Match{Op: transport.OpRemove, Bag: "a/a!ready", Nth: 1, OK: true},
				When:  transport.OnReply, Hold: "claim",
			})
			cfg := testClusterConfig()
			cfg.ComputeNodes, cfg.SlotsPerNode = 3, 1
			c := NewClusterOverStore(store, cfg)
			defer c.Shutdown()
			defer f.Fire("claim") // before Shutdown, which waits out the held claim
			actx, cancelA := context.WithCancel(ctx)
			defer cancelA()
			var startedA atomic.Int64
			gate := make(chan struct{})
			ha, err := c.SubmitJob(actx, gatesApp("a", &startedA, gate), JobConfig{Name: "a"})
			if err != nil {
				t.Fatal(err)
			}
			sealedEmpty(t, ctx, c, ha.Bag("in0"))
			select {
			case <-held:
			case <-ctx.Done():
				t.Fatal("job a's blueprint was never claimed")
			}
			// Of 3 slots a's share is 2 once b arrives: with its claim
			// billed and its blueprint still counted, a looks starved.
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
			if lift == "blueprint claimed" {
				f.Fire("claim")
			} else {
				cancelA()
			}
			if err := hb.Wait(ctx); err != nil {
				t.Fatal(err)
			}
			if lift == "blueprint claimed" {
				close(gate)
				if err := ha.Wait(ctx); err != nil {
					t.Fatal(err)
				}
			} else {
				f.Fire("claim")
				if err := ha.Wait(ctx); err == nil {
					t.Error("job a completed after its submitter cancelled it")
				}
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

// settleDemand waits until the ready bag of job h holds want blueprints and
// its lease counts as many, and fails the test if that does not happen
// within ten seconds.
func settleDemand(t *testing.T, ctx context.Context, c *Cluster, h *JobHandle, want int64, step string) {
	t.Helper()
	ready := h.Master().WorkBags().readyName()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := c.Store().Sample(ctx, ready)
		if err != nil {
			t.Fatal(err)
		}
		got := int64(c.leases.Stats(h.id).Demand)
		if st.RemainingChunks() == want && got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: the ready bag holds %d blueprints and the lease counts %d, want %d",
				step, st.RemainingChunks(), got, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// staleRun is a job j whose ready bag holds two stale blueprints of epoch 0
// beside three of epoch 1, on a cluster whose only remaining slot a gated
// blocker job holds.
type staleRun struct {
	hb, h   *JobHandle
	gb1     chan struct{}   // frees the blocker's slot
	gates   []chan struct{} // finish j's three tasks
	started atomic.Int64    // bodies of j's tasks started
}

// runToStaleBlueprints builds a staleRun on c, a cluster of two one-slot
// compute nodes: the blocker's two gated workers hold both slots, j's
// three gated tasks share one output bag, one of them claims the slot the
// blocker frees, and that node crashes, so the recovery restarts all
// three at epoch 1. The lease demand is checked at each step.
func runToStaleBlueprints(t *testing.T, ctx context.Context, c *Cluster) *staleRun {
	t.Helper()
	r := &staleRun{gb1: make(chan struct{})}
	var blocked atomic.Int64
	gb0 := make(chan struct{})
	hb, err := c.SubmitJob(ctx, gatesApp("blocker", &blocked, gb0, r.gb1), JobConfig{Name: "blocker"})
	if err != nil {
		t.Fatal(err)
	}
	r.hb = hb
	sealedEmpty(t, ctx, c, hb.Bag("in0"), hb.Bag("in1"))
	waitFor(t, ctx, "the blocker to hold both slots", func() bool { return blocked.Load() == 2 })

	// Three gated tasks share an output bag, so a recovery that restarts
	// one restarts them all.
	app := NewApp("j").Bag("out")
	r.gates = make([]chan struct{}, 3)
	for i := range r.gates {
		gate := make(chan struct{})
		r.gates[i] = gate
		in := fmt.Sprintf("in%d", i)
		app.SourceBag(in)
		app.AddTask(TaskSpec{
			Name: fmt.Sprintf("t%d", i), Inputs: []string{in}, Outputs: []string{"out"}, NoClone: true,
			Run: func(tc *TaskCtx) error {
				r.started.Add(1)
				select {
				case <-gate:
					return nil
				case <-tc.Context().Done():
					return tc.Context().Err()
				}
			},
		})
	}
	h, err := c.SubmitJob(ctx, app, JobConfig{Name: "j"})
	if err != nil {
		t.Fatal(err)
	}
	r.h = h
	sealedEmpty(t, ctx, c, h.Bag("in0"), h.Bag("in1"), h.Bag("in2"))
	settleDemand(t, ctx, c, h, 3, "pushes with no slot free")

	close(gb0)
	waitFor(t, ctx, "a worker of job j", func() bool { return r.started.Load() == 1 })
	settleDemand(t, ctx, c, h, 2, "a claim")

	var node string
	waitFor(t, ctx, "the master to see j's worker", func() bool {
		for _, task := range app.Tasks() {
			if on := h.Master().RunningOn(task); len(on) > 0 {
				node = on[0]
			}
		}
		return node != ""
	})
	if err := c.CrashComputeNode(node); err != nil {
		t.Fatal(err)
	}
	// Two blueprints of epoch 0 are left in the bag beside three of epoch 1.
	settleDemand(t, ctx, c, h, 5, "a recovery's re-push")
	if got := h.Master().Stats().Recoveries; got < 1 {
		t.Fatalf("%d recoveries, want at least 1", got)
	}
	return r
}

// TestLeaseDemandTracksReadyBag: a job's lease demand is counted where its
// blueprints are pushed and claimed, and seeded from the ready bag when a
// master starts. Gated workers hold the slots so that blueprints pile up,
// and at every quiescent step the demand equals what a Sample of the ready
// bag counts: after pushes with no slot free, after a claim, after a
// recovery re-pushes at a new epoch (the stale blueprints count until they
// are claimed), after a master crash and recovery, after the stale
// blueprints are claimed, and for a job submitted over a ready bag that
// already holds its blueprints.
func TestLeaseDemandTracksReadyBag(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	c := dispatchCluster(t, 2, nil)
	r := runToStaleBlueprints(t, ctx, c)
	h := r.h

	h.CrashMaster()
	if h.RecoverMaster(ctx) == nil {
		t.Fatal("no master recovered")
	}
	settleDemand(t, ctx, c, h, 5, "a master crash and recovery")

	close(r.gb1) // and a slot for each of j's workers, and one to spare
	for i := 0; i < 3; i++ {
		if _, err := c.AddComputeNode(ctx); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, ctx, "job j's three workers", func() bool { return r.started.Load() == 4 })
	settleDemand(t, ctx, c, h, 0, "the stale blueprints claimed")
	for _, gate := range r.gates {
		close(gate)
	}
	if err := h.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if got := r.started.Load(); got != 4 {
		t.Errorf("%d bodies of job j started, want 4: a stale blueprint ran", got)
	}
	if err := r.hb.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	noFallbackClaims(t, c)

	// A job submitted over a ready bag that already holds its blueprints:
	// its first cluster went away before any was claimed.
	var blocked, started atomic.Int64
	first := dispatchCluster(t, 1, nil)
	gate := make(chan struct{})
	defer close(gate)
	if _, err := first.SubmitJob(ctx, gatesApp("blocker", &blocked, gate), JobConfig{Name: "blocker"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, ctx, "the only slot to be taken", func() bool { return blocked.Load() == 1 })
	sealedEmpty(t, ctx, first, "in0", "in1")
	open := make(chan struct{})
	close(open)
	if err := first.Start(ctx, gatesApp("resumed", &started, open, open)); err != nil {
		t.Fatal(err)
	}
	settleDemand(t, ctx, first, first.Job("resumed"), 2, "pushes with no slot free")
	first.Shutdown()

	cfg := testClusterConfig()
	cfg.ComputeNodes, cfg.SlotsPerNode = 1, 1
	second := NewClusterOverStore(first.Store(), cfg)
	defer second.Shutdown()
	g2 := make(chan struct{})
	if _, err := second.SubmitJob(ctx, gatesApp("blocker", &blocked, g2), JobConfig{Name: "blocker2"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, ctx, "the second cluster's slot to be taken", func() bool { return blocked.Load() == 2 })
	if err := second.Start(ctx, gatesApp("resumed", &started, open, open)); err != nil {
		t.Fatal(err)
	}
	settleDemand(t, ctx, second, second.Job("resumed"), 2, "a job submitted over its blueprints")
	close(g2)
	if err := second.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if started.Load() != 2 {
		t.Errorf("%d task bodies ran, want 2", started.Load())
	}
	noFallbackClaims(t, second)
}

// TestSuccessorRefusesStaleBlueprintBeforeReplay: a recovered master rules
// on a blueprint's staleness only once its replay of the work bags is
// done. The successor's first read of the ready bag is held while free
// slots claim all five blueprints, two of them stale; released, the replay
// shows the successor epoch 1, and only the three fresh blueprints may
// start a worker.
func TestSuccessorRefusesStaleBlueprintBeforeReplay(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	store, f := storeBehind(t)
	cfg := testClusterConfig()
	cfg.ComputeNodes, cfg.SlotsPerNode = 2, 1
	c := NewClusterOverStore(store, cfg)
	defer c.Shutdown()
	r := runToStaleBlueprints(t, ctx, c)
	h := r.h

	h.CrashMaster()
	held := f.Add(transport.Rule{Match: transport.Match{Op: transport.OpReadAt, Bag: "j!ready", Nth: 1}, Hold: "replay"})
	if h.RecoverMaster(ctx) == nil {
		t.Fatal("no master recovered")
	}
	select {
	case <-held:
	case <-ctx.Done():
		t.Fatal("the successor never read its ready bag")
	}
	// A slot for each of the five blueprints: the blocker's, freed, and
	// four added nodes'.
	close(r.gb1)
	for i := 0; i < 4; i++ {
		if _, err := c.AddComputeNode(ctx); err != nil {
			t.Fatal(err)
		}
	}
	ready := h.Master().WorkBags().readyName()
	waitFor(t, ctx, "every blueprint claimed", func() bool {
		st, err := store.Sample(ctx, ready)
		return err == nil && st.RemainingChunks() == 0
	})
	f.Fire("replay")

	waitFor(t, ctx, "job j's three workers", func() bool { return r.started.Load() >= 4 })
	for _, gate := range r.gates {
		close(gate)
	}
	if err := h.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if got := r.started.Load(); got != 4 {
		t.Errorf("%d bodies of job j started, want 4: a stale blueprint ran", got)
	}
	if got := h.Stats().Running; got != 0 {
		t.Errorf("job j holds %d slots after Wait, want 0", got)
	}
	if err := r.hb.Wait(ctx); err != nil {
		t.Fatal(err)
	}
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
	store, f := storeBehind(t)
	polls := counted(f, transport.Match{Op: transport.OpRemove, Bag: "!ready"})
	// Samples of ready work bags: every master seeds its job's demand with
	// one when it starts, and nothing else reads a ready bag's count.
	samples := counted(f, transport.Match{Op: transport.OpSample, Bag: "!ready"})
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
		for last, since := polls.Load(), time.Now(); ; time.Sleep(time.Millisecond) {
			if now := polls.Load(); now != last {
				last, since = now, time.Now()
			} else if time.Since(since) > 20*time.Millisecond || ctx.Err() != nil {
				return last
			}
		}
	}
	before, sampledBefore := settled(), samples.Load()
	for i := 0; i < raises; i++ {
		c.wake.raise()
		settled()
	}
	perRaise := float64(settled()-before) / raises
	if n := samples.Load() - sampledBefore; n != 0 {
		t.Errorf("%d ready-bag samples across %d raises, want 0: the scheduling pass reads no storage", n, raises)
	}
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

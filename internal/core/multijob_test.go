package core

import (
	"context"
	"io"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bag"
	"repro/internal/chunk"
	"repro/internal/ctrl"
	"repro/internal/sched"
	"repro/internal/sketch"
	"repro/internal/transport"
)

// waitNoLeakedSlots asserts that, shortly after all jobs complete, every
// claimed worker slot has been returned to the pool.
func waitNoLeakedSlots(t *testing.T, c *Cluster) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if c.FreeSlots() == c.TotalSlots() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("leaked slots: free %d of %d total", c.FreeSlots(), c.TotalSlots())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTwoConcurrentJobs submits two namespaced instances of the same
// application graph to one cluster; both run concurrently over the
// shared compute pool and both must produce the exact answer.
func TestTwoConcurrentJobs(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cfg := testClusterConfig()
	cluster, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	const nA, nB = 20000, 12000
	var procA, procB atomic.Int64
	appA, appB := sumApp(&procA), sumApp(&procB)

	// Namespacing maps both jobs' identical declared names apart.
	hA, err := cluster.SubmitJob(ctx, appA, JobConfig{Name: "jobA"})
	if err != nil {
		t.Fatal(err)
	}
	hB, err := cluster.SubmitJob(ctx, appB, JobConfig{Name: "jobB"})
	if err != nil {
		t.Fatal(err)
	}
	if hA.Bag("in") != "jobA/in" || hB.Bag("out") != "jobB/out" {
		t.Fatalf("namespaced bag names wrong: %q %q", hA.Bag("in"), hB.Bag("out"))
	}
	loadInts(t, ctx, cluster.Store(), hA.Bag("in"), nA)
	loadInts(t, ctx, cluster.Store(), hB.Bag("in"), nB)

	if err := hA.Wait(ctx); err != nil {
		t.Fatalf("jobA: %v", err)
	}
	if err := hB.Wait(ctx); err != nil {
		t.Fatalf("jobB: %v", err)
	}
	wantA := int64(nA) * (nA - 1) / 2
	wantB := int64(nB) * (nB - 1) / 2
	if got := readSumBag(t, ctx, cluster.Store(), hA.Bag("out")); got != wantA {
		t.Fatalf("jobA sum = %d, want %d", got, wantA)
	}
	if got := readSumBag(t, ctx, cluster.Store(), hB.Bag("out")); got != wantB {
		t.Fatalf("jobB sum = %d, want %d", got, wantB)
	}
	if st := hA.Stats(); st.State != "done" {
		t.Fatalf("jobA state = %s, want done", st.State)
	}
	// Exactly-once per job despite sharing every compute node.
	if procA.Load() != nA || procB.Load() != nB {
		t.Fatalf("processed %d/%d records, want exactly %d/%d",
			procA.Load(), procB.Load(), nA, nB)
	}
	waitNoLeakedSlots(t, cluster)
}

// TestResetStaleHandleDiscard: after Reset releases a job's name, a
// successor may reclaim it; the stale handle's Discard must refuse
// instead of wiping the live successor's namespace out from under it.
func TestResetStaleHandleDiscard(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cfg := testClusterConfig()
	cluster, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	const n = 5000
	var proc1, proc2 atomic.Int64
	h1, err := cluster.SubmitJob(ctx, sumApp(&proc1), JobConfig{Name: "w"})
	if err != nil {
		t.Fatal(err)
	}
	loadInts(t, ctx, cluster.Store(), h1.Bag("in"), n)
	if err := h1.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	// Reset releases the name and rewinds the sources; a successor
	// resubmission reclaims both and must reproduce the exact result.
	if err := h1.Reset(ctx); err != nil {
		t.Fatal(err)
	}
	h2, err := cluster.SubmitJob(ctx, sumApp(&proc2), JobConfig{Name: "w"})
	if err != nil {
		t.Fatalf("resubmission after Reset: %v", err)
	}
	if err := h2.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	want := int64(n) * (n - 1) / 2
	if got := readSumBag(t, ctx, cluster.Store(), h2.Bag("out")); got != want {
		t.Fatalf("retried job sum = %d, want %d (reset must replay the rewound sources exactly)", got, want)
	}
	if proc2.Load() != n {
		t.Fatalf("retry processed %d records, want exactly %d", proc2.Load(), n)
	}
	// The stale handle must not be able to destroy the reclaimed name —
	// neither by discarding it nor by rewinding/scrubbing it again.
	if err := h1.Discard(ctx); err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("stale handle Discard: err = %v, want stale-handle refusal", err)
	}
	if err := h1.Reset(ctx); err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("stale handle Reset: err = %v, want stale-handle refusal", err)
	}
	if got := readSumBag(t, ctx, cluster.Store(), h2.Bag("out")); got != want {
		t.Fatalf("successor output damaged by stale Discard: %d, want %d", got, want)
	}
	if err := h2.Discard(ctx); err != nil {
		t.Fatalf("live handle Discard: %v", err)
	}
}

// TestResubmitWhilePredecessorLetsGo: everything a finished job still
// does to its ready bag must be over before the job reports completion,
// because a caller that Waits, Resets and resubmits the same name at once
// gets the same ready bag. The storage tier stalls a node's poll for
// blueprints through the finished job's binding, and lets it through once
// the successor's first blueprint sits behind it (or, when completion
// correctly waits, after a pause in which no successor can have been
// submitted). The successor must not lose that blueprint.
func TestResubmitWhilePredecessorLetsGo(t *testing.T) {
	t.Run("poll in flight", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		store, f := storeBehind(t)
		cluster := NewClusterOverStore(store, testClusterConfig())
		defer cluster.Shutdown()

		const n = 2000
		var proc1, proc2 atomic.Int64
		gate := make(chan struct{})
		h1, err := cluster.SubmitJob(ctx, gatedSumApp(&proc1, gate), JobConfig{Name: "w"})
		if err != nil {
			t.Fatal(err)
		}
		loadInts(t, ctx, store, h1.Bag("in"), n)
		waitFor(t, ctx, "the first job's copy stage", func() bool { return proc1.Load() >= n })
		// Hold the first poll of a ready bag. Once a ready bag is deleted
		// (Reset's delete), and until the release, show every poll an
		// empty ready bag — dispatch is event-driven, and the successor's
		// blueprint must still be in the bag when the held request lands —
		// and report the first blueprint inserted into one: a successor's,
		// not one of the job's own.
		f.Add(transport.Rule{Match: transport.Match{Op: transport.OpDelete, Bag: "!ready#"}, Fire: "deleted"})
		entered := f.Add(transport.Rule{Match: transport.Match{Op: transport.OpRemove, Bag: "!ready#", Nth: 1}, Hold: "release"})
		f.Add(transport.Rule{Match: transport.Match{Op: transport.OpRemove, Bag: "!ready#"}, Open: "deleted", Close: "release",
			Answer: &transport.Response{Status: transport.StatusAgain}})
		pushed := f.Add(transport.Rule{Match: transport.Match{Op: transport.OpInsert, Bag: "!ready#"}, When: transport.OnReply,
			Open: "deleted", Close: "release"})
		// The poll to stall is one made while the job is bound. The gated
		// copy workers and their clones may hold every slot, and a node
		// without a free slot does not poll: a node added now has free
		// slots and is bound to the job.
		if _, err := cluster.AddComputeNode(ctx); err != nil {
			t.Fatal(err)
		}
		select {
		case <-entered:
		case <-ctx.Done():
			t.Fatal("no node polled the ready bag")
		}
		close(gate)

		result := make(chan error, 1)
		go func() {
			if err := h1.Wait(ctx); err != nil {
				result <- err
				return
			}
			// The stalled request is to be the finished job's, not one of
			// Reset's own.
			select {
			case <-entered:
			case <-ctx.Done():
			}
			if err := h1.Reset(ctx); err != nil {
				result <- err
				return
			}
			h2, err := cluster.SubmitJob(ctx, sumApp(&proc2), JobConfig{Name: "w"})
			if err != nil {
				result <- err
				return
			}
			wctx, wcancel := context.WithTimeout(ctx, 10*time.Second)
			defer wcancel()
			result <- h2.Wait(wctx)
		}()

		// The job's work is over once its master is done; what follows is
		// the letting go.
		select {
		case <-h1.Master().Done():
		case <-ctx.Done():
			t.Fatal("the first job never completed")
		}
		select {
		case <-entered:
		case <-ctx.Done():
			t.Fatal("the stalled request never arrived")
		}
		select {
		case <-pushed:
		case <-time.After(200 * time.Millisecond):
		}
		f.Fire("release")
		if err := <-result; err != nil {
			t.Fatalf("resubmitted job: %v (a blueprint of its was lost to its predecessor)", err)
		}
		if proc2.Load() != n {
			t.Fatalf("resubmitted job processed %d records, want %d", proc2.Load(), n)
		}
	})
}

// TestStopWaitsForClaimInFlight: a graceful Stop must not cancel a node
// whose schedule loop has taken a blueprint out of the ready bag but not
// yet registered its worker — the node looks idle, and a blueprint dropped
// there is in no bag the master will ever look at. The storage tier holds
// the reply carrying the job's first blueprint until the node has been told
// to stop; the job must still finish, every record processed once.
func TestStopWaitsForClaimInFlight(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	store, f := storeBehind(t)
	// The reply to the first successful poll of a ready bag carries a
	// blueprint that now exists only in that reply.
	claimed := f.Add(transport.Rule{Match: transport.Match{Op: transport.OpRemove, Bag: "!ready#", Nth: 1, OK: true}, When: transport.OnReply,
		Hold: "deliver"})
	cfg := testClusterConfig()
	cfg.ComputeNodes = 1
	cluster := NewClusterOverStore(store, cfg)
	defer cluster.Shutdown()

	const n = 2000
	var proc atomic.Int64
	h, err := cluster.SubmitJob(ctx, sumApp(&proc), JobConfig{Name: "w"})
	if err != nil {
		t.Fatal(err)
	}
	loadInts(t, ctx, store, h.Bag("in"), n)
	select {
	case <-claimed:
	case <-ctx.Done():
		t.Fatal("no node claimed the job's first blueprint")
	}
	// The rest of the job needs somewhere to run once compute-0 is gone.
	if _, err := cluster.AddComputeNode(ctx); err != nil {
		t.Fatal(err)
	}
	cluster.mu.Lock()
	victim := cluster.computes["compute-0"]
	cluster.mu.Unlock()
	removed := make(chan error, 1)
	go func() { removed <- cluster.RemoveComputeNode("compute-0") }()
	waitFor(t, ctx, "compute-0 to begin draining", victim.Draining)
	// Long enough for a Stop that saw no workers to have cancelled the node.
	time.Sleep(30 * time.Millisecond)
	f.Fire("deliver")

	wctx, wcancel := context.WithTimeout(ctx, 10*time.Second)
	defer wcancel()
	if err := h.Wait(wctx); err != nil {
		t.Fatalf("job: %v (the blueprint claimed while the node was stopped was lost)", err)
	}
	if err := <-removed; err != nil {
		t.Fatal(err)
	}
	if got, want := readSumBag(t, ctx, store, h.Bag("out")), int64(n)*(n-1)/2; got != want || proc.Load() != n {
		t.Fatalf("sum = %d over %d processed records, want %d over %d", got, proc.Load(), want, n)
	}
}

// TestSubmitCollisionValidation: the registry rejects, with a clear
// error, submissions whose physical bag names could cross-talk with a
// live job's — including names only derived at runtime — and accepts a
// namespace nested in a live one, whose bags the outer job's Discard
// leaves alone.
func TestSubmitCollisionValidation(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cluster, err := NewCluster(testClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	var proc atomic.Int64
	app := sumApp(&proc)
	loadInts(t, ctx, cluster.Store(), "in", 1000)
	if err := cluster.Start(ctx, app); err != nil {
		t.Fatal(err)
	}

	// Duplicate job name.
	if _, err := cluster.SubmitJob(ctx, sumApp(&proc), JobConfig{Name: "fault"}); err == nil ||
		!strings.Contains(err.Error(), "already exists") {
		t.Fatalf("duplicate name not rejected: %v", err)
	}
	// A raw job reusing a live job's bag names would steal its chunks.
	if _, err := cluster.SubmitJob(ctx, sumApp(&proc), JobConfig{Name: "thief", Raw: true}); err == nil ||
		!strings.Contains(err.Error(), `"in"`) {
		t.Fatalf("raw bag collision not rejected: %v", err)
	}
	// A namespaced job with the same graph is fine.
	h, err := cluster.SubmitJob(ctx, sumApp(&proc), JobConfig{Name: "ns"})
	if err != nil {
		t.Fatal(err)
	}
	loadInts(t, ctx, cluster.Store(), h.Bag("in"), 1000)

	// Within one job: a declared bag that shadows a sibling partitioned
	// bag's derived partition names is rejected at submit time.
	bad := NewApp("selfcol")
	bad.SourceBag("src")
	bad.PartitionedBag("x", 2)
	bad.Bag("x.p0")
	bad.Bag("y")
	bad.AddTask(TaskSpec{Name: "prod", Inputs: []string{"src"}, Outputs: []string{"x"}, Run: nop})
	bad.AddTask(TaskSpec{Name: "cons", Inputs: []string{"x"}, Outputs: []string{"y"}, Run: nop})
	if _, err := cluster.SubmitJob(ctx, bad, JobConfig{Name: "selfcol"}); err == nil ||
		!strings.Contains(err.Error(), "x.p0") {
		t.Fatalf("derived-name self collision not rejected: %v", err)
	}
	// Namespaces may nest: a job owns only the names it claims, so the
	// outer job's Discard below must not reach into the inner one's bags.
	inner, err := cluster.SubmitJob(ctx, sumApp(&proc), JobConfig{Name: "ns/inner"})
	if err != nil {
		t.Fatalf("nested namespace: %v", err)
	}
	loadInts(t, ctx, cluster.Store(), inner.Bag("in"), 1000)
	// A raw job whose literal bag name is a live namespaced job's bag
	// would steal its chunks.
	intruder := NewApp("intruder")
	intruder.SourceBag("ns/in").Bag("intruder.out")
	intruder.AddTask(TaskSpec{Name: "t", Inputs: []string{"ns/in"}, Outputs: []string{"intruder.out"}, Run: nop})
	if _, err := cluster.SubmitJob(ctx, intruder, JobConfig{Name: "intruder", Raw: true}); err == nil ||
		!strings.Contains(err.Error(), `bag "ns/in" claimed by both jobs`) {
		t.Fatalf("raw bag collision with a namespaced job not rejected: %v", err)
	}

	if err := cluster.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	for _, j := range []*JobHandle{h, inner} {
		if err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	innerBags := func() []string {
		var under []string
		for _, b := range storedBags(cluster) {
			if strings.HasPrefix(b, "ns/inner/") {
				under = append(under, b)
			}
		}
		slices.Sort(under)
		return under
	}
	before := innerBags()
	if err := h.Discard(ctx); err != nil {
		t.Fatal(err)
	}
	if after := innerBags(); len(before) == 0 || !slices.Equal(after, before) {
		t.Fatalf("the inner job's bags %v became %v after the outer job's Discard", before, after)
	}
	if got, want := readSumBag(t, ctx, cluster.Store(), inner.Bag("out")), int64(1000*999/2); got != want {
		t.Fatalf("inner job sum = %d after the outer job's Discard, want %d", got, want)
	}
}

// TestMultiJobComputeChurn exercises compute-node churn — add, graceful
// remove, silent crash — while two jobs run concurrently: both must
// complete with correct output and every worker slot must be returned.
func TestMultiJobComputeChurn(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cfg := testClusterConfig()
	cluster, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	const nA, nB = 30000, 30000
	var procA, procB atomic.Int64
	// No copy worker finishes before the crash, so the victim still holds
	// jobA's work when it dies.
	gate := make(chan struct{})
	hA, err := cluster.SubmitJob(ctx, gatedSumApp(&procA, gate), JobConfig{Name: "jobA"})
	if err != nil {
		t.Fatal(err)
	}
	hB, err := cluster.SubmitJob(ctx, gatedSumApp(&procB, gate), JobConfig{Name: "jobB"})
	if err != nil {
		t.Fatal(err)
	}
	loadInts(t, ctx, cluster.Store(), hA.Bag("in"), nA)
	loadInts(t, ctx, cluster.Store(), hB.Bag("in"), nB)

	// Wait for both jobs to make progress, then churn the pool.
	for (procA.Load() < nA/10 || procB.Load() < nB/10) && ctx.Err() == nil {
		time.Sleep(time.Millisecond)
	}
	added, err := cluster.AddComputeNode(ctx)
	if err != nil {
		t.Fatal(err)
	}
	victim := runningNode(t, ctx, hA.Master(), "copy")
	if err := cluster.CrashComputeNode(victim); err != nil {
		t.Fatal(err)
	}
	close(gate)
	removed := "compute-0"
	if victim == removed {
		removed = "compute-1"
	}
	if err := cluster.RemoveComputeNode(removed); err != nil {
		t.Fatal(err)
	}

	if err := hA.Wait(ctx); err != nil {
		t.Fatalf("jobA: %v", err)
	}
	if err := hB.Wait(ctx); err != nil {
		t.Fatalf("jobB: %v", err)
	}
	wantA := int64(nA) * (nA - 1) / 2
	wantB := int64(nB) * (nB - 1) / 2
	if got := readSumBag(t, ctx, cluster.Store(), hA.Bag("out")); got != wantA {
		t.Fatalf("jobA sum = %d, want %d (stats %+v)", got, wantA, hA.Stats())
	}
	if got := readSumBag(t, ctx, cluster.Store(), hB.Bag("out")); got != wantB {
		t.Fatalf("jobB sum = %d, want %d (stats %+v)", got, wantB, hB.Stats())
	}
	recoveries := hA.Stats().Master.Recoveries + hB.Stats().Master.Recoveries
	if recoveries == 0 {
		t.Error("expected at least one recovery across the two jobs")
	}
	waitNoLeakedSlots(t, cluster)
	t.Logf("added node %s; jobA %+v; jobB %+v", added, hA.Stats(), hB.Stats())
}

// slowSumApp is sumApp with a simulated per-record cost in the copy
// stage (paid as batched sleeps, which count as busy time for overload
// detection), so the job holds its worker slots long enough for
// scheduling decisions to be observable.
func slowSumApp(processed *atomic.Int64, recordCostNS int64) *App {
	app := NewApp("slowfault")
	app.SourceBag("in").Bag("mid").Bag("out")
	app.AddTask(TaskSpec{
		Name:    "copy",
		Inputs:  []string{"in"},
		Outputs: []string{"mid"},
		Run: func(tc *TaskCtx) error {
			w := chunk.NewWriter(1<<10, func(c chunk.Chunk) error { return tc.Insert(0, c) })
			var owedNS int64
			for {
				c, err := tc.Remove(0)
				if err == bag.ErrEmpty {
					return w.Flush()
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
					owedNS += recordCostNS
					if owedNS >= 500_000 {
						time.Sleep(time.Duration(owedNS))
						owedNS = 0
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
		Merge:   sumApp(new(atomic.Int64)).Task("sum").Merge,
		Run:     sumApp(new(atomic.Int64)).Task("sum").Run,
	})
	return app
}

// rawBytes reads a record as its bytes: an Iterator over it yields the
// records of a row chunk and those of a batch that shuffle.Writer.Write cut,
// whose blob column holds them.
type rawBytes struct{}

func (rawBytes) Encode(buf, rec []byte) []byte          { return append(buf, rec...) }
func (rawBytes) Decode(rec []byte) ([]byte, int, error) { return rec, len(rec), nil }

// slowGroupApp is slowSumApp over a partitioned edge: "route" keys every
// record onto the Spread edge "shuf" — three in four onto key 0 — and "sum"
// pays the per-record cost folding its share of the edge into one partial
// sum, so every extra worker of the slow stage is a clone bound to a leaf.
func slowGroupApp(processed *atomic.Int64, recordCostNS int64) *App {
	app := NewApp("slowgroup").SourceBag("in").
		AddBag(BagSpec{Name: "shuf", Partitions: 2, Spread: true}).Bag("out")
	forEach := func(tc *TaskCtx, f func(v int64, rec []byte) error) error {
		for {
			c, err := tc.Remove(0)
			if err == bag.ErrEmpty {
				return nil
			}
			if err != nil {
				return err
			}
			// "in" holds row chunks, "shuf" the batches Write cuts: an
			// Iterator reads both.
			for it := chunk.NewSliceIterator[[]byte](rawBytes{}, []chunk.Chunk{c}); ; {
				rec, err := it.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					return err
				}
				v, _, err := chunk.Int64Codec{}.Decode(rec)
				if err != nil {
					return err
				}
				if err := f(v, rec); err != nil {
					return err
				}
			}
		}
	}
	app.AddTask(TaskSpec{Name: "route", Inputs: []string{"in"}, Outputs: []string{"shuf"},
		Run: func(tc *TaskCtx) error {
			w := tc.ShuffleWriter(0)
			tc.OnFinish(w.Close)
			return forEach(tc, func(v int64, rec []byte) error {
				key := int64(0)
				if v%4 == 3 {
					key = 1 + v%64
				}
				return w.Write(chunk.Int64Codec{}.Encode(nil, key), rec)
			})
		}})
	app.AddTask(TaskSpec{Name: "sum", Inputs: []string{"shuf"}, Outputs: []string{"out"},
		Run: func(tc *TaskCtx) error {
			var sum, owedNS int64
			err := forEach(tc, func(v int64, _ []byte) error {
				if owedNS += recordCostNS; owedNS >= 500_000 {
					time.Sleep(time.Duration(owedNS))
					owedNS = 0
				}
				processed.Add(1)
				sum += v
				return nil
			})
			if err != nil {
				return err
			}
			w := chunk.NewWriter(1<<10, func(c chunk.Chunk) error { return tc.Insert(0, c) })
			if err := w.Append(chunk.Int64Codec{}.Encode(nil, sum)); err != nil {
				return err
			}
			return w.Flush()
		}})
	return app
}

// TestFairShareYieldsClones: a clone-hungry job is allowed to swallow the
// whole cluster while alone, but when a second job arrives the scheduler
// preempts clones (cooperative yield at chunk boundaries) back toward
// the fair share — and the first job still produces the exact answer,
// whether its clones share a task's declared input or are each bound to a
// leaf of a partitioned edge.
func TestFairShareYieldsClones(t *testing.T) {
	for _, greedy := range []struct {
		name string
		app  func(*atomic.Int64, int64) *App
		ran  int // tasks that finish before the clone-hungry stage starts
	}{
		{"shared input", slowSumApp, 0},
		{"leaf clones", slowGroupApp, 1},
	} {
		t.Run(greedy.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			cfg := testClusterConfig()
			cfg.Master.CloneInterval = 2 * time.Millisecond
			cfg.Node.MonitorInterval = 2 * time.Millisecond
			cfg.Master.Policies = []ctrl.Policy{&ctrl.ForceClones{}}
			cluster, err := NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Shutdown()

			const nA, nB = 60000, 8000
			var procA, procB atomic.Int64
			// ~40µs/record: the greedy job stays saturated long after the
			// modest job arrives.
			hA, err := cluster.SubmitJob(ctx, greedy.app(&procA, 40_000), JobConfig{Name: "greedy"})
			if err != nil {
				t.Fatal(err)
			}
			loadInts(t, ctx, cluster.Store(), hA.Bag("in"), nA)

			// Let the greedy job clone its slow stage across the whole pool.
			for (hA.Stats().Master.TasksFinished < greedy.ran || cluster.FreeSlots() > 0) && ctx.Err() == nil {
				time.Sleep(time.Millisecond)
			}
			hB, err := cluster.SubmitJob(ctx, sumApp(&procB), JobConfig{Name: "modest"})
			if err != nil {
				t.Fatal(err)
			}
			loadInts(t, ctx, cluster.Store(), hB.Bag("in"), nB)

			if err := hB.Wait(ctx); err != nil {
				t.Fatalf("modest job: %v", err)
			}
			if err := hA.Wait(ctx); err != nil {
				t.Fatalf("greedy job: %v", err)
			}
			wantA := int64(nA) * (nA - 1) / 2
			wantB := int64(nB) * (nB - 1) / 2
			if got := readSumBag(t, ctx, cluster.Store(), hA.Bag("out")); got != wantA {
				t.Fatalf("greedy sum = %d, want %d", got, wantA)
			}
			if got := readSumBag(t, ctx, cluster.Store(), hB.Bag("out")); got != wantB {
				t.Fatalf("modest sum = %d, want %d", got, wantB)
			}
			if y := hA.Stats().Master.Yields; y == 0 {
				t.Errorf("greedy job yielded no clones (stats %+v)", hA.Stats().Master)
			}
			// Yielding must not lose or redo records.
			if procA.Load() != nA {
				t.Errorf("greedy processed %d records, want exactly %d", procA.Load(), nA)
			}
			waitNoLeakedSlots(t, cluster)
		})
	}
}

// TestJobContextCancelReleasesResources: cancelling a job's submission
// context fails that job and releases its scheduler state — lease and
// workers — while its neighbor runs on to the exact answer.
func TestJobContextCancelReleasesResources(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cluster, err := NewCluster(testClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	var procA, procB atomic.Int64
	jobCtx, jobCancel := context.WithCancel(ctx)
	defer jobCancel()
	// The doomed job's source is never loaded: its workers idle on the
	// empty bag until the context is cancelled.
	hA, err := cluster.SubmitJob(jobCtx, sumApp(&procA), JobConfig{Name: "doomed"})
	if err != nil {
		t.Fatal(err)
	}
	hB, err := cluster.SubmitJob(ctx, sumApp(&procB), JobConfig{Name: "next"})
	if err != nil {
		t.Fatal(err)
	}
	// Let the doomed job claim at least one worker, then pull its plug.
	waitFor(t, ctx, "a worker of the doomed job", func() bool { return hA.Stats().Running > 0 })
	const n = 8000
	loadInts(t, ctx, cluster.Store(), hB.Bag("in"), n)
	jobCancel()
	if err := hA.Wait(ctx); err == nil {
		t.Fatal("cancelled job reported success")
	}
	if hA.State() != sched.StateFailed {
		t.Fatalf("cancelled job state = %v, want failed", hA.State())
	}
	if err := hB.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	want := int64(n) * (n - 1) / 2
	if got := readSumBag(t, ctx, cluster.Store(), hB.Bag("out")); got != want {
		t.Fatalf("neighbor job sum = %d, want %d", got, want)
	}
	waitNoLeakedSlots(t, cluster)
}

// storedBags lists the logical name of every bag with state on one of the
// cluster's storage nodes.
func storedBags(c *Cluster) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for _, n := range c.storages {
		for _, b := range n.BagNames() {
			out = append(out, b[:strings.LastIndexByte(b, '#')])
		}
	}
	return out
}

// TestDiscardLeavesNoBags: a job keeps every bag, its work bags included,
// until Discard, and Discard leaves none behind: for a namespaced job
// nothing under its namespace, for a raw job none of its declared bags,
// partitions, isolated bags, clone partials or work bags. Each job routes
// over a partitioned edge and its merge stage is cloned, so every kind of
// derived bag is written (the merge deletes the partials it merged).
func TestDiscardLeavesNoBags(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cfg := testClusterConfig()
	cfg.Master.Policies = []ctrl.Policy{&ctrl.ForceClones{}}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()

	for _, jc := range []JobConfig{{Name: "ns"}, {Raw: true}} {
		// slowGroupApp routes "in" over the partitioned edge "shuf" into one
		// partial sum per leaf on "out"; "total" adds them up, cloned.
		app := slowGroupApp(new(atomic.Int64), 0).Bag("total")
		sum := sumApp(new(atomic.Int64)).Task("sum")
		app.AddTask(TaskSpec{Name: "total", Inputs: []string{"out"}, Outputs: []string{"total"}, Run: sum.Run, Merge: sum.Merge})
		HoldForClone(app.Task("total"))
		h, err := c.SubmitJob(ctx, app, jc)
		if err != nil {
			t.Fatal(err)
		}
		const n = 4000
		loadInts(t, ctx, c.Store(), h.Bag("in"), n)
		if err := h.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		requireClones(t, h.Master().Stats(), true)
		if got, want := readSumBag(t, ctx, c.Store(), h.Bag("total")), int64(n)*(n-1)/2; got != want {
			t.Fatalf("job %s: sum = %d, want %d", h.ID(), got, want)
		}
		wb := h.Master().WorkBags()
		work := []string{wb.readyName(), wb.runningName(), wb.doneName()}
		for _, w := range work {
			if !slices.Contains(storedBags(c), w) {
				t.Errorf("job %s: work bag %s is gone after Wait", h.ID(), w)
			}
		}

		if err := h.Discard(ctx); err != nil {
			t.Fatal(err)
		}
		owned := func(b string) bool {
			if !jc.Raw {
				return strings.HasPrefix(b, "ns/")
			}
			return slices.Contains(app.Bags(), b) || slices.Contains(work, b) ||
				strings.HasPrefix(b, "shuf.p") || strings.HasPrefix(b, "shuf.h") || strings.HasPrefix(b, "total~p")
		}
		for _, b := range storedBags(c) {
			if owned(b) {
				t.Errorf("job %s: bag %s survived Discard", h.ID(), b)
			}
		}
	}
}

// TestRawDiscardClearsSketches: a raw (non-namespaced) job's Discard
// must drop its partitioned edges' sketch state along with the bags.
// Plain bag deletes don't touch sketches, so without the explicit clear
// a later job reusing the bag name would inherit the dead job's
// cumulative producer statistics and mis-split from its first round.
func TestRawDiscardClearsSketches(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cluster, err := NewCluster(testClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	app := NewApp("sk").SourceBag("in").
		AddBag(BagSpec{Name: "shuf", Partitions: 2, Spread: true}).Bag("out")
	app.AddTask(TaskSpec{
		Name: "route", Inputs: []string{"in"}, Outputs: []string{"shuf"},
		// Runs until the job is cancelled: two empty stages would be over
		// before the cancel below.
		Run: func(tc *TaskCtx) error { <-tc.Context().Done(); return tc.Context().Err() },
	})
	app.AddTask(TaskSpec{
		Name: "drain", Inputs: []string{"shuf"}, Outputs: []string{"out"},
		Run: func(tc *TaskCtx) error { return nil },
	})
	jobCtx, jobCancel := context.WithCancel(ctx)
	defer jobCancel()
	h, err := cluster.SubmitJob(jobCtx, app, JobConfig{Raw: true})
	if err != nil {
		t.Fatal(err)
	}
	// A producer pushes cumulative edge stats while the job runs.
	st := sketch.NewEdgeStats()
	st.Counts["shuf.p0"] = 1000
	if err := cluster.Store().ExchangeSketch(ctx, "shuf", "w0", st.AppendTo(nil)); err != nil {
		t.Fatal(err)
	}
	// Cancel the job so Discard becomes legal.
	jobCancel()
	if err := h.Wait(ctx); err == nil {
		t.Fatal("cancelled job reported success")
	}
	if err := h.Discard(ctx); err != nil {
		t.Fatal(err)
	}
	got, err := cluster.Store().FetchSketch(ctx, "shuf")
	if err != nil {
		t.Fatal(err)
	}
	if got.Total() != 0 {
		t.Fatalf("discarded job's edge sketch survived: %d records", got.Total())
	}
}

// TestNameUnderStemRefused: a job owns every name under its stems — its
// release deletes them all — so a declared name under one is refused at
// submission, whether the stem is a live neighbour's or the job's own.
// Accepting either lets a release delete a bag another job (or the same
// job's Reset) still needs.
func TestNameUnderStemRefused(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cluster, err := NewCluster(testClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	t.Run("neighbour", func(t *testing.T) {
		// A finished raw neighbour keeps its source "shuf.pending" until
		// its own Discard.
		neighbour := NewApp("neighbour").SourceBag("shuf.pending").Bag("neighbour.out")
		neighbour.AddTask(TaskSpec{Name: "t", Inputs: []string{"shuf.pending"}, Outputs: []string{"neighbour.out"}, Run: nop})
		loadInts(t, ctx, cluster.Store(), "shuf.pending", 100)
		hn, err := cluster.SubmitJob(ctx, neighbour, JobConfig{Raw: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := hn.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		// slowGroupApp's partitioned edge "shuf" claims the stems "shuf.p"
		// and "shuf.h", and its release would delete "shuf.pending".
		_, err = cluster.SubmitJob(ctx, slowGroupApp(new(atomic.Int64), 0), JobConfig{Raw: true})
		if err == nil {
			t.Fatal(`a raw job whose stem "shuf.p" covers a neighbour's bag was accepted`)
		}
		for _, want := range []string{`"slowgroup"`, `"neighbour"`, `"shuf.pending"`} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("refusal %q does not name %s", err, want)
			}
		}
	})

	t.Run("own", func(t *testing.T) {
		app := NewApp("own").SourceBag("src").SourceBag("x.part2").PartitionedBag("x", 2).Bag("y")
		app.AddTask(TaskSpec{Name: "prod", Inputs: []string{"src", "x.part2"}, Outputs: []string{"x"}, Run: nop})
		app.AddTask(TaskSpec{Name: "cons", Inputs: []string{"x"}, Outputs: []string{"y"}, Run: nop})
		if _, err := cluster.SubmitJob(ctx, app, JobConfig{Name: "own"}); err == nil ||
			!strings.Contains(err.Error(), `"own/x.part2"`) {
			t.Fatalf("a source under the job's own stem was not refused: %v", err)
		}
	})
}

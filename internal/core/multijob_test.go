package core

import (
	"context"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bag"
	"repro/internal/chunk"
	"repro/internal/sched"
	"repro/internal/sketch"
	"repro/internal/storage"
	"repro/internal/transport"
)

// loadIntsBag loads n int64 records into a named bag and seals it.
func loadIntsBag(t *testing.T, ctx context.Context, store *bag.Store, bagName string, n int) {
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
	cfg.Sched.Interval = 2 * time.Millisecond
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
	loadIntsBag(t, ctx, cluster.Store(), hA.Bag("in"), nA)
	loadIntsBag(t, ctx, cluster.Store(), hB.Bag("in"), nB)

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
	loadIntsBag(t, ctx, cluster.Store(), h1.Bag("in"), n)
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

// heldReadyOp is a storage handler that, once armed, holds the first
// request of one kind against a ready work bag until release is closed,
// and reports the first insert into a ready bag that arrives behind it
// and after the bag was deleted — a successor's blueprint, not one of the
// job's own. From then on it shows every other poll an empty ready bag:
// dispatch is event-driven, and the successor's blueprint must still be in
// the bag when the stalled request lands.
type heldReadyOp struct {
	inner   transport.Handler
	op      transport.Op
	armed   atomic.Bool
	first   atomic.Bool   // set by the one request that is held
	held    atomic.Bool   // true while it is
	deleted atomic.Bool   // a ready-bag delete has arrived
	entered chan struct{} // closed when the held request arrives
	release chan struct{} // closed by the test to let it through
	pushed  chan struct{} // closed by the successor's first blueprint
	push    sync.Once
}

func (h *heldReadyOp) Handle(req *transport.Request) *transport.Response {
	if !strings.Contains(req.Bag, "!ready#") {
		return h.inner.Handle(req)
	}
	if req.Op == transport.OpDelete {
		h.deleted.Store(true)
	}
	if req.Op == h.op && h.armed.Load() && h.first.CompareAndSwap(false, true) {
		h.held.Store(true)
		close(h.entered)
		<-h.release
		resp := h.inner.Handle(req)
		h.held.Store(false)
		return resp
	}
	successor := h.held.Load() && h.deleted.Load()
	if req.Op == transport.OpRemove && successor {
		return &transport.Response{Status: transport.StatusAgain}
	}
	resp := h.inner.Handle(req)
	if req.Op == transport.OpInsert && successor {
		h.push.Do(func() { close(h.pushed) })
	}
	return resp
}

// TestResubmitWhilePredecessorLetsGo: everything a finished job still
// does to its ready bag must be over before the job reports completion,
// because a caller that Waits, Resets and resubmits the same name at once
// gets the same ready bag. The storage tier stalls one request of the
// finished job — the ready-bag delete of its work-bag collection, or a
// node's poll for blueprints through the job's binding — and lets it
// through once the successor's first blueprint sits behind it (or, when
// completion correctly waits, after a pause in which no successor can
// have been submitted). The successor must not lose that blueprint.
func TestResubmitWhilePredecessorLetsGo(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   transport.Op
	}{
		{"late collection", transport.OpDelete},
		{"poll in flight", transport.OpRemove},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			hd := &heldReadyOp{
				inner: storage.NewNode("storage-0"), op: tc.op,
				entered: make(chan struct{}), release: make(chan struct{}), pushed: make(chan struct{}),
			}
			inproc := transport.NewInProc()
			inproc.Register("storage-0", hd)
			store, err := bag.NewStore(bag.Config{Nodes: []string{"storage-0"}, Client: inproc, ChunkSize: 1 << 10})
			if err != nil {
				t.Fatal(err)
			}
			cluster := NewClusterOverStore(store, testClusterConfig())
			defer cluster.Shutdown()

			const n = 2000
			var proc1, proc2 atomic.Int64
			gate := make(chan struct{})
			h1, err := cluster.SubmitJob(ctx, gatedSumApp(&proc1, gate), JobConfig{Name: "w"})
			if err != nil {
				t.Fatal(err)
			}
			loadIntsBag(t, ctx, store, h1.Bag("in"), n)
			for proc1.Load() < n {
				if ctx.Err() != nil {
					t.Fatal("timed out waiting for the first job's copy stage")
				}
				time.Sleep(time.Millisecond)
			}
			hd.armed.Store(true)
			if tc.op == transport.OpRemove {
				// The poll to stall is one made while the job is bound. The
				// gated copy workers and their clones may hold every slot,
				// and a node without a free slot does not poll: a node added
				// now has free slots and is bound to the job.
				if _, err := cluster.AddComputeNode(ctx); err != nil {
					t.Fatal(err)
				}
				select {
				case <-hd.entered:
				case <-ctx.Done():
					t.Fatal("no node polled the ready bag")
				}
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
				case <-hd.entered:
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
			case <-hd.entered:
			case <-ctx.Done():
				t.Fatal("the stalled request never arrived")
			}
			select {
			case <-hd.pushed:
			case <-time.After(200 * time.Millisecond):
			}
			close(hd.release)
			if err := <-result; err != nil {
				t.Fatalf("resubmitted job: %v (a blueprint of its was lost to its predecessor)", err)
			}
			if proc2.Load() != n {
				t.Fatalf("resubmitted job processed %d records, want %d", proc2.Load(), n)
			}
		})
	}
}

// heldClaim is a storage handler that holds the reply to the first
// successful remove from a ready work bag — a blueprint that now exists
// only in that reply — until release is closed.
type heldClaim struct {
	inner   transport.Handler
	first   atomic.Bool
	entered chan struct{} // closed when the claim is held
	release chan struct{} // closed by the test to deliver it
}

func (h *heldClaim) Handle(req *transport.Request) *transport.Response {
	resp := h.inner.Handle(req)
	if req.Op == transport.OpRemove && strings.Contains(req.Bag, "!ready#") && resp.OK() && h.first.CompareAndSwap(false, true) {
		close(h.entered)
		<-h.release
	}
	return resp
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
	hd := &heldClaim{inner: storage.NewNode("storage-0"), entered: make(chan struct{}), release: make(chan struct{})}
	inproc := transport.NewInProc()
	inproc.Register("storage-0", hd)
	store, err := bag.NewStore(bag.Config{Nodes: []string{"storage-0"}, Client: inproc, ChunkSize: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
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
	loadIntsBag(t, ctx, store, h.Bag("in"), n)
	select {
	case <-hd.entered:
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
	for !victim.Draining() {
		if ctx.Err() != nil {
			t.Fatal("compute-0 never began to drain")
		}
		time.Sleep(time.Millisecond)
	}
	// Long enough for a Stop that saw no workers to have cancelled the node.
	time.Sleep(30 * time.Millisecond)
	close(hd.release)

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
// live job's — including names only derived at runtime.
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
	loadIntsBag(t, ctx, cluster.Store(), h.Bag("in"), 1000)

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
	// Nested namespaces would make Discard reach into a sibling job.
	if _, err := cluster.SubmitJob(ctx, sumApp(&proc), JobConfig{Name: "nested", Prefix: "ns/inner"}); err == nil ||
		!strings.Contains(err.Error(), "nests") {
		t.Fatalf("nested namespace not rejected: %v", err)
	}
	// A raw job whose literal bag name reaches into a live namespace is
	// rejected too: the namespaced job owns its whole "<prefix>/"
	// subtree (Discard sweeps exactly that).
	intruder := NewApp("intruder")
	intruder.SourceBag("ns/in").Bag("intruder.out")
	intruder.AddTask(TaskSpec{Name: "t", Inputs: []string{"ns/in"}, Outputs: []string{"intruder.out"}, Run: nop})
	if _, err := cluster.SubmitJob(ctx, intruder, JobConfig{Name: "intruder", Raw: true}); err == nil ||
		!strings.Contains(err.Error(), `"ns/"`) {
		t.Fatalf("raw bag inside a live namespace not rejected: %v", err)
	}

	if err := cluster.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestMultiJobComputeChurn exercises compute-node churn — add, graceful
// remove, crash — while two jobs run concurrently: both must complete
// with correct output and every worker slot must be returned.
func TestMultiJobComputeChurn(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cfg := testClusterConfig()
	cfg.Sched.Interval = 2 * time.Millisecond
	cluster, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	const nA, nB = 30000, 30000
	var procA, procB atomic.Int64
	hA, err := cluster.SubmitJob(ctx, sumApp(&procA), JobConfig{Name: "jobA"})
	if err != nil {
		t.Fatal(err)
	}
	hB, err := cluster.SubmitJob(ctx, sumApp(&procB), JobConfig{Name: "jobB"})
	if err != nil {
		t.Fatal(err)
	}
	loadIntsBag(t, ctx, cluster.Store(), hA.Bag("in"), nA)
	loadIntsBag(t, ctx, cluster.Store(), hB.Bag("in"), nB)

	// Wait for both jobs to make progress, then churn the pool.
	for (procA.Load() < nA/10 || procB.Load() < nB/10) && ctx.Err() == nil {
		time.Sleep(time.Millisecond)
	}
	added, err := cluster.AddComputeNode(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.CrashComputeNode("compute-0", true); err != nil {
		t.Fatal(err)
	}
	if err := cluster.RemoveComputeNode("compute-1"); err != nil {
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
			for r := chunk.NewReader(c); r.Remaining(); {
				rec, err := r.Next()
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
			cfg.Sched.Interval = 2 * time.Millisecond
			cfg.Master.StorageBandwidth = math.Inf(1)
			cfg.Master.CloneInterval = 2 * time.Millisecond
			cfg.Node.MonitorInterval = 2 * time.Millisecond
			cfg.Node.OverloadThreshold = 0.01
			cluster, err := NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Shutdown()

			const nA, nB = 60000, 8000
			var procA, procB atomic.Int64
			// ~40µs/record: the greedy job stays saturated for hundreds of
			// scheduler ticks after the modest job arrives.
			hA, err := cluster.SubmitJob(ctx, greedy.app(&procA, 40_000), JobConfig{Name: "greedy"})
			if err != nil {
				t.Fatal(err)
			}
			loadIntsBag(t, ctx, cluster.Store(), hA.Bag("in"), nA)

			// Let the greedy job clone its slow stage across the whole pool.
			for (hA.Stats().Master.TasksFinished < greedy.ran || cluster.FreeSlots() > 0) && ctx.Err() == nil {
				time.Sleep(time.Millisecond)
			}
			hB, err := cluster.SubmitJob(ctx, sumApp(&procB), JobConfig{Name: "modest"})
			if err != nil {
				t.Fatal(err)
			}
			loadIntsBag(t, ctx, cluster.Store(), hB.Bag("in"), nB)

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

// TestJobQueueAdmission: with MaxConcurrent=1 the second submission
// queues and starts automatically when the first job finishes.
func TestJobQueueAdmission(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cfg := testClusterConfig()
	cfg.Sched.MaxConcurrent = 1
	cluster, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	const n = 8000
	var procA, procB atomic.Int64
	hA, err := cluster.SubmitJob(ctx, sumApp(&procA), JobConfig{Name: "first"})
	if err != nil {
		t.Fatal(err)
	}
	hB, err := cluster.SubmitJob(ctx, sumApp(&procB), JobConfig{Name: "second"})
	if err != nil {
		t.Fatal(err)
	}
	if hB.State() != sched.StateQueued {
		t.Fatalf("second job state = %v, want queued", hB.State())
	}
	// Sources for both can be loaded while the second job is queued.
	loadIntsBag(t, ctx, cluster.Store(), hA.Bag("in"), n)
	loadIntsBag(t, ctx, cluster.Store(), hB.Bag("in"), n)

	if err := hA.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if err := hB.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	want := int64(n) * (n - 1) / 2
	if got := readSumBag(t, ctx, cluster.Store(), hB.Bag("out")); got != want {
		t.Fatalf("queued job sum = %d, want %d", got, want)
	}
	// Discard frees the names for resubmission.
	if err := hB.Discard(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.SubmitJob(ctx, sumApp(&procB), JobConfig{Name: "second"}); err != nil {
		t.Fatalf("resubmission after discard: %v", err)
	}
}

// TestJobContextCancelReleasesResources: cancelling a job's submission
// context fails that job and releases its scheduler state — concurrency
// slot, lease, and workers — so queued neighbors still run.
func TestJobContextCancelReleasesResources(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cfg := testClusterConfig()
	cfg.Sched.MaxConcurrent = 1
	cluster, err := NewCluster(cfg)
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
	if hB.State() != sched.StateQueued {
		t.Fatalf("second job state = %v, want queued", hB.State())
	}
	const n = 8000
	loadIntsBag(t, ctx, cluster.Store(), hB.Bag("in"), n)

	// Let the doomed job claim at least one worker, then pull its plug.
	for cluster.FreeSlots() == cluster.TotalSlots() && ctx.Err() == nil {
		time.Sleep(time.Millisecond)
	}
	jobCancel()
	if err := hA.Wait(ctx); err == nil {
		t.Fatal("cancelled job reported success")
	}
	if hA.State() != sched.StateFailed {
		t.Fatalf("cancelled job state = %v, want failed", hA.State())
	}
	// The freed concurrency slot admits the queued job, which completes.
	if err := hB.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	want := int64(n) * (n - 1) / 2
	if got := readSumBag(t, ctx, cluster.Store(), hB.Bag("out")); got != want {
		t.Fatalf("queued job sum = %d, want %d", got, want)
	}
	waitNoLeakedSlots(t, cluster)
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
	if _, err := cluster.Store().ExchangeSketch(ctx, "shuf", "w0", st.AppendTo(nil), 1); err != nil {
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

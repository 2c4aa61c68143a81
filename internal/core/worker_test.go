package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/bag"
	"repro/internal/chunk"
	"repro/internal/shuffle"
	"repro/internal/storage"
	"repro/internal/transport"
)

func newTestStore(t *testing.T) *bag.Store {
	t.Helper()
	tr := transport.NewInProc()
	names := []string{"s0", "s1"}
	for _, n := range names {
		tr.Register(n, storage.NewNode(n))
	}
	st, err := bag.NewStore(bag.Config{Nodes: names, Client: tr, ChunkSize: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestWorkerRunsBlueprint exercises the worker runtime directly: a
// blueprint's Run consumes the input, writes the output, and the runtime
// flushes writers on success.
func TestWorkerRunsBlueprint(t *testing.T) {
	store := newTestStore(t)
	ctx := context.Background()

	in := store.Bag("in")
	w := chunk.NewTypedWriter[int64](chunk.Int64Codec{}, 1<<10, func(c chunk.Chunk) error {
		return in.Insert(ctx, c)
	})
	for i := int64(0); i < 100; i++ {
		if err := w.Write(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := store.Seal(ctx, "in"); err != nil {
		t.Fatal(err)
	}

	app := NewApp("w")
	app.SourceBag("in").Bag("out")
	app.AddTask(TaskSpec{
		Name: "double", Inputs: []string{"in"}, Outputs: []string{"out"},
		Run: func(tc *TaskCtx) error {
			w := chunk.NewWriter(1<<10, func(c chunk.Chunk) error { return tc.Insert(0, c) })
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
					rec, _ := r.Next()
					v, _, err := (chunk.Int64Codec{}).Decode(rec)
					if err != nil {
						return err
					}
					var buf []byte
					buf = (chunk.Int64Codec{}).Encode(buf, v*2)
					if err := w.Append(buf); err != nil {
						return err
					}
				}
			}
		},
	})
	if err := app.Validate(); err != nil {
		t.Fatal(err)
	}
	bp := &Blueprint{
		ID: "double/w0@e0", Spec: "double",
		Inputs: []string{"in"}, Outputs: []string{"out"},
	}
	worker := runWorker(ctx, bp, store, app)
	select {
	case <-worker.done:
	case <-time.After(30 * time.Second):
		t.Fatal("worker did not finish")
	}
	if worker.err != nil {
		t.Fatal(worker.err)
	}
	// Accounting: the worker consumed and produced bytes.
	if worker.tc.BytesIn() == 0 || worker.tc.BytesOut() == 0 {
		t.Fatalf("accounting: in=%d out=%d", worker.tc.BytesIn(), worker.tc.BytesOut())
	}
	if worker.tc.NumInputs() != 1 || worker.tc.NumOutputs() != 1 {
		t.Fatal("arity wrong")
	}
	if worker.tc.InputName(0) != "in" || worker.tc.OutputName(0) != "out" {
		t.Fatal("names wrong")
	}

	// Verify doubled contents.
	sc := store.Scanner("out")
	var sum int64
	for {
		c, err := sc.Next(ctx)
		if err == bag.ErrAgain || err == bag.ErrEmpty {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		r := chunk.NewReader(c)
		for r.Remaining() {
			rec, _ := r.Next()
			v, _, _ := (chunk.Int64Codec{}).Decode(rec)
			sum += v
		}
	}
	if want := int64(2 * 99 * 100 / 2); sum != want {
		t.Fatalf("sum %d, want %d", sum, want)
	}
}

// TestWorkerErrorPropagates: a failing TaskFunc surfaces its error.
func TestWorkerErrorPropagates(t *testing.T) {
	store := newTestStore(t)
	ctx := context.Background()
	store.Seal(ctx, "in")
	app := NewApp("w")
	app.SourceBag("in").Bag("out")
	boom := func(tc *TaskCtx) error { return context.DeadlineExceeded }
	app.AddTask(TaskSpec{Name: "bad", Inputs: []string{"in"}, Outputs: []string{"out"}, Run: boom})
	app.Validate()
	bp := &Blueprint{ID: "bad/w0@e0", Spec: "bad", Inputs: []string{"in"}, Outputs: []string{"out"}}
	w := runWorker(ctx, bp, store, app)
	<-w.done
	if w.err != context.DeadlineExceeded {
		t.Fatalf("err = %v", w.err)
	}
}

// TestWorkerUnknownSpec: a blueprint naming an unregistered task fails
// cleanly.
func TestWorkerUnknownSpec(t *testing.T) {
	store := newTestStore(t)
	app := NewApp("w")
	bp := &Blueprint{ID: "ghost/w0@e0", Spec: "ghost"}
	w := runWorker(context.Background(), bp, store, app)
	<-w.done
	if w.err == nil {
		t.Fatal("expected unknown-spec error")
	}
}

// TestWorkerKill: a killed worker stops quickly and reports killed.
func TestWorkerKill(t *testing.T) {
	store := newTestStore(t)
	ctx := context.Background()
	app := NewApp("w")
	app.SourceBag("in").Bag("out")
	app.AddTask(TaskSpec{
		Name: "spin", Inputs: []string{"in"}, Outputs: []string{"out"},
		Run: func(tc *TaskCtx) error {
			<-tc.Context().Done()
			return tc.Context().Err()
		},
	})
	app.Validate()
	bp := &Blueprint{ID: "spin/w0@e0", Spec: "spin", Inputs: []string{"in"}, Outputs: []string{"out"}}
	w := runWorker(ctx, bp, store, app)
	w.kill()
	select {
	case <-w.done:
	case <-time.After(10 * time.Second):
		t.Fatal("killed worker did not stop")
	}
	if !w.killed.Load() {
		t.Fatal("killed flag not set")
	}
}

// TestLoadSnapshotBusyFraction: the overload accounting distinguishes a
// busy worker from an idle one.
func TestLoadSnapshotBusyFraction(t *testing.T) {
	store := newTestStore(t)
	tc := newTaskCtx(context.Background(), &Blueprint{}, store, nil, nil, "")
	// Simulate compute time: control held by the "worker".
	time.Sleep(20 * time.Millisecond)
	busy := tc.loadSnapshot()
	if busy < 0.9 {
		t.Fatalf("busy fraction %.2f after pure compute", busy)
	}
	// Simulate waiting: mark a wait interval.
	start := tc.markBusyEnd()
	time.Sleep(20 * time.Millisecond)
	tc.markWaitEnd(start)
	busy = tc.loadSnapshot()
	if busy > 0.2 {
		t.Fatalf("busy fraction %.2f after pure waiting", busy)
	}
}

// heldInserts is a transport client whose inserts wait for release.
type heldInserts struct {
	transport.Client
	arrived chan struct{}
	release chan struct{}
}

func (h *heldInserts) Call(ctx context.Context, node string, req *transport.Request) (*transport.Response, error) {
	if req.Op == transport.OpInsert {
		h.arrived <- struct{}{}
		<-h.release
	}
	return h.Client.Call(ctx, node, req)
}

// TestKilledWorkerLeavesNoInsertInFlight: a recovery kills a task's workers,
// waits for them to be done, and then discards the task's output bags. An
// insert a killed worker had handed to its pipelined inserter must
// therefore have landed by the time the worker is done — landing after the
// discard, its chunk would be counted twice once the restarted task has
// written it again. (Seen as a wrong sum, once in 300 runs of
// TestComputeNodeCrashByHeartbeat under -race: the heartbeat timeout fired
// while healthy copy workers were still inserting.) The worker here writes
// one chunk to a plain output and one through a shuffle writer.
func TestKilledWorkerLeavesNoInsertInFlight(t *testing.T) {
	tr := transport.NewInProc()
	tr.Register("s0", storage.NewNode("s0"))
	held := &heldInserts{Client: tr, arrived: make(chan struct{}, 2), release: make(chan struct{})}
	store, err := bag.NewStore(bag.Config{Nodes: []string{"s0"}, Client: held, ChunkSize: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	app := NewApp("w")
	app.SourceBag("in").Bag("out")
	app.AddBag(BagSpec{Name: "edge", Partitions: 2})
	app.AddTask(TaskSpec{Name: "t", Inputs: []string{"in"}, Outputs: []string{"out", "edge"},
		Run: func(tc *TaskCtx) error {
			if err := tc.Insert(0, chunk.Chunk("\x01a")); err != nil {
				return err
			}
			ref := shuffle.RouteRef{Iso: -1, Part: 0}
			if err := tc.ShuffleWriter(1).InsertBatchChunk(ref, chunk.Chunk("\x01b"), 1); err != nil {
				return err
			}
			<-tc.Context().Done()
			return tc.Context().Err()
		}})
	if err := app.Validate(); err != nil {
		t.Fatal(err)
	}
	bp := &Blueprint{ID: "t/w0@e0", Spec: "t", Inputs: []string{"in"}, Outputs: []string{"out", "edge"}}
	w := runWorker(context.Background(), bp, store, app)
	<-held.arrived
	<-held.arrived
	w.kill()
	select {
	case <-w.done:
		t.Fatal("worker reported done with two inserts still in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(held.release)
	select {
	case <-w.done:
	case <-time.After(30 * time.Second):
		t.Fatal("worker never finished after its inserts landed")
	}
}

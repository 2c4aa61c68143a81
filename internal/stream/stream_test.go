// Tests for the continuous-ingestion subsystem. They live in an external
// test package so they can drive the stream through the public hurricane
// API (hurricane imports internal/stream, so an internal test package
// could not).
package stream_test

import (
	"context"
	"errors"

	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/hurricane"
	"repro/internal/stream"
)

// sliceSource is a scripted source: batches are pushed by the test and
// handed to the pump one per poll; end() makes it return io.EOF once
// drained.
type sliceSource[T any] struct {
	mu      sync.Mutex
	codec   hurricane.Codec[T]
	batches [][]stream.Record[T]
	done    bool
}

// uintSource is a sliceSource of uint64 values.
func uintSource() *sliceSource[uint64] { return &sliceSource[uint64]{codec: hurricane.Uint64Of} }

func (s *sliceSource[T]) push(recs ...stream.Record[T]) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.batches = append(s.batches, recs)
}

func (s *sliceSource[T]) end() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.done = true
}

func (s *sliceSource[T]) poll(ctx context.Context) ([]stream.Record[T], error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.batches) == 0 {
		if s.done {
			return nil, io.EOF
		}
		return nil, nil
	}
	b := s.batches[0]
	s.batches = s.batches[1:]
	return b, nil
}

// source is the Source the stream polls.
func (s *sliceSource[T]) source() stream.Source { return stream.SourceOf(s.codec, s.poll) }

// at builds a record carrying value v at event time t (seconds scaled to
// nanos from a fixed origin).
const testOrigin = int64(1_000_000_000_000)

func at(sec float64, v uint64) stream.Record[uint64] {
	return stream.Record[uint64]{Time: testOrigin + int64(sec*float64(time.Second)), Value: v}
}

// sumApp is the window DAG used by most tests: consume uint64 records
// from "in" and emit one (count, sum) pair per worker into "out".
// Concatenated partials are reconciled by the collector, so the app
// tolerates cloning.
func sumApp() *hurricane.App {
	app := hurricane.NewApp("sum")
	app.SourceBag("in").Bag("out")
	app.AddTask(hurricane.TaskSpec{
		Name:    "sum",
		Inputs:  []string{"in"},
		Outputs: []string{"out"},
		Run: func(tc *hurricane.TaskCtx) error {
			var n, sum uint64
			if err := hurricane.ForEach(tc, 0, hurricane.Uint64Of, func(v uint64) error {
				n++
				sum += v
				return nil
			}); err != nil {
				return err
			}
			w := hurricane.NewWriter(tc, 0, hurricane.PairOf(hurricane.Uint64Of, hurricane.Uint64Of))
			return w.Write(hurricane.Pair[uint64, uint64]{First: n, Second: sum})
		},
	})
	return app
}

// collectSum merges a window's (count, sum) partials.
func collectSum(ctx context.Context, t *testing.T, store *hurricane.Store, bagName string) (n, sum uint64) {
	t.Helper()
	recs, err := hurricane.Collect(ctx, store, bagName, hurricane.PairOf(hurricane.Uint64Of, hurricane.Uint64Of))
	if err != nil {
		t.Fatalf("collect %s: %v", bagName, err)
	}
	for _, r := range recs {
		n += r.First
		sum += r.Second
	}
	return
}

func testCluster(t *testing.T) *hurricane.Cluster {
	t.Helper()
	cluster, err := hurricane.NewCluster(hurricane.ClusterConfig{
		StorageNodes: 2,
		ComputeNodes: 2,
		SlotsPerNode: 2,
		ChunkSize:    4 << 10,
		Node: hurricane.NodeConfig{
			MonitorInterval: 10 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return cluster
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// TestStreamWindows runs several consecutive windows through the
// scheduler and verifies exactly-once per-window results in order.
func TestStreamWindows(t *testing.T) {
	ctx := testCtx(t)
	cluster := testCluster(t)
	defer cluster.Shutdown()

	src := uintSource()
	h, err := hurricane.RunStream(ctx, cluster, hurricane.StreamSpec{
		Name:    "s",
		App:     sumApp(),
		Sources: map[string]hurricane.StreamSource{"in": src.source()},
		Window:  time.Second,
		Origin:  testOrigin,
	})
	if err != nil {
		t.Fatal(err)
	}

	const windows = 5
	wantN := make([]uint64, windows)
	wantSum := make([]uint64, windows)
	for w := 0; w < windows; w++ {
		var recs []stream.Record[uint64]
		for i := 0; i < 200; i++ {
			v := uint64(w*1000 + i)
			recs = append(recs, at(float64(w)+float64(i)/250.0, v))
			wantN[w]++
			wantSum[w] += v
		}
		src.push(recs...)
	}
	src.end()

	store := cluster.Store()
	for w := 0; w < windows; w++ {
		res, err := h.Next(ctx)
		if err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
		if res.Index != w {
			t.Fatalf("results out of order: got window %d, want %d", res.Index, w)
		}
		if res.Err != nil {
			t.Fatalf("window %d failed: %v", w, res.Err)
		}
		if res.Records != int64(wantN[w]) {
			t.Fatalf("window %d sealed %d records, want %d", w, res.Records, wantN[w])
		}
		n, sum := collectSum(ctx, t, store, res.Bag("out"))
		if n != wantN[w] || sum != wantSum[w] {
			t.Fatalf("window %d: got n=%d sum=%d, want n=%d sum=%d", w, n, sum, wantN[w], wantSum[w])
		}
	}
	if _, err := h.Next(ctx); err != io.EOF {
		t.Fatalf("after last window: err=%v, want io.EOF", err)
	}
	if err := h.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	st := h.Stats()
	if st.Completed != windows || st.Failed != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestStreamLateFold checks that a straggler folds into the lowest open
// window and never leaks into the window it was late for.
func TestStreamLateFold(t *testing.T) {
	ctx := testCtx(t)
	cluster := testCluster(t)
	defer cluster.Shutdown()

	src := uintSource()
	h, err := hurricane.RunStream(ctx, cluster, hurricane.StreamSpec{
		Name:    "fold",
		App:     sumApp(),
		Sources: map[string]hurricane.StreamSource{"in": src.source()},
		Window:  time.Second,
		Origin:  testOrigin,
	})
	if err != nil {
		t.Fatal(err)
	}
	src.push(at(0.1, 1), at(0.2, 2))
	src.push(at(1.1, 10))
	src.push(at(0.5, 99)) // late for window 0: folds into window 1
	src.end()

	store := cluster.Store()
	w0, err := h.Next(ctx)
	if err != nil || w0.Err != nil {
		t.Fatalf("window 0: %v / %v", err, w0.Err)
	}
	if n, sum := collectSum(ctx, t, store, w0.Bag("out")); n != 2 || sum != 3 {
		t.Fatalf("window 0: n=%d sum=%d, want 2/3", n, sum)
	}
	w1, err := h.Next(ctx)
	if err != nil || w1.Err != nil {
		t.Fatalf("window 1: %v / %v", err, w1.Err)
	}
	if n, sum := collectSum(ctx, t, store, w1.Bag("out")); n != 2 || sum != 109 {
		t.Fatalf("window 1: n=%d sum=%d, want 2/109 (late record folds forward)", n, sum)
	}
	if err := h.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if got := h.Stats().Late; got != 1 {
		t.Fatalf("stats.Late = %d, want 1", got)
	}
}

// TestStreamIdleSourceTimeout checks that an idle source is excluded from
// the low watermark after its idle timeout instead of stalling every window
// behind it.
func TestStreamIdleSourceTimeout(t *testing.T) {
	ctx := testCtx(t)
	cluster := testCluster(t)
	defer cluster.Shutdown()

	// The window app consumes two independent source bags.
	app := hurricane.NewApp("two")
	app.SourceBag("a").SourceBag("b").Bag("out")
	app.AddTask(hurricane.TaskSpec{
		Name:    "sum",
		Inputs:  []string{"a", "b"},
		Outputs: []string{"out"},
		Run: func(tc *hurricane.TaskCtx) error {
			var n uint64
			for i := 0; i < 2; i++ {
				if err := hurricane.ForEach(tc, i, hurricane.Uint64Of, func(uint64) error {
					n++
					return nil
				}); err != nil {
					return err
				}
			}
			return hurricane.NewWriter(tc, 0, hurricane.Uint64Of).Write(n)
		},
	})

	active, idle := uintSource(), uintSource()
	h, err := hurricane.RunStream(ctx, cluster, hurricane.StreamSpec{
		Name:    "idle",
		App:     app,
		Sources: map[string]hurricane.StreamSource{"a": active.source(), "b": idle.source()},
		Window:  time.Second,
		Origin:  testOrigin,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The idle source delivers one early record and then goes silent; the
	// active source keeps streaming past the window end. Without the idle
	// timeout the watermark would stall at the idle source's last record
	// and window 0 would never seal.
	idle.push(at(0.05, 1))
	active.push(at(0.1, 1), at(0.4, 2))
	active.push(at(1.2, 3)) // past window 0's end

	res, err := h.Next(ctx)
	if err != nil {
		t.Fatalf("window 0 never sealed despite idle timeout: %v", err)
	}
	if res.Err != nil {
		t.Fatalf("window 0: %v", res.Err)
	}
	recs, err := hurricane.Collect(ctx, cluster.Store(), res.Bag("out"), hurricane.Uint64Of)
	if err != nil {
		t.Fatal(err)
	}
	var n uint64
	for _, r := range recs {
		n += r
	}
	if n != 3 { // 2 active + 1 idle record in window 0
		t.Fatalf("window 0 saw %d records, want 3", n)
	}
	active.end()
	idle.end()
	if err := h.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestStreamEventTimeGap checks that a watermark jump over several empty
// windows completes them immediately without running a DAG job apiece —
// a quiet source must not flood the scheduler with no-op window jobs.
func TestStreamEventTimeGap(t *testing.T) {
	ctx := testCtx(t)
	cluster := testCluster(t)
	defer cluster.Shutdown()

	src := uintSource()
	h, err := hurricane.RunStream(ctx, cluster, hurricane.StreamSpec{
		Name:    "gap",
		App:     sumApp(),
		Sources: map[string]hurricane.StreamSource{"in": src.source()},
		Window:  time.Second,
		Origin:  testOrigin,
	})
	if err != nil {
		t.Fatal(err)
	}
	src.push(at(0.2, 1), at(0.4, 2))
	src.push(at(5.5, 30)) // watermark jumps past windows 1–4
	src.end()

	store := cluster.Store()
	for w := 0; w < 6; w++ {
		res, err := h.Next(ctx)
		if err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
		if res.Index != w || res.Err != nil {
			t.Fatalf("window %d: index %d err %v", w, res.Index, res.Err)
		}
		switch {
		case w == 0:
			if n, sum := collectSum(ctx, t, store, res.Bag("out")); n != 2 || sum != 3 {
				t.Fatalf("window 0: n=%d sum=%d, want 2/3", n, sum)
			}
		case w == 5:
			if n, sum := collectSum(ctx, t, store, res.Bag("out")); n != 1 || sum != 30 {
				t.Fatalf("window 5: n=%d sum=%d, want 1/30", n, sum)
			}
		default: // gap windows
			if res.Records != 0 {
				t.Fatalf("gap window %d sealed %d records", w, res.Records)
			}
			if res.Job() != nil {
				t.Fatalf("gap window %d ran a job; empty windows must not", w)
			}
		}
	}
	if err := h.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if st := h.Stats(); st.Completed != 6 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestStreamWindowRetry injects a one-shot failure into a window job and
// checks the window is reset and retried — exactly-once preserved — while
// successor windows keep completing.
func TestStreamWindowRetry(t *testing.T) {
	ctx := testCtx(t)
	cluster := testCluster(t)
	defer cluster.Shutdown()

	var failOnce atomic.Bool
	failOnce.Store(true)
	app := hurricane.NewApp("flaky")
	app.SourceBag("in").Bag("out")
	app.AddTask(hurricane.TaskSpec{
		Name:    "sum",
		Inputs:  []string{"in"},
		Outputs: []string{"out"},
		Run: func(tc *hurricane.TaskCtx) error {
			var n, sum uint64
			sawMarker := false
			if err := hurricane.ForEach(tc, 0, hurricane.Uint64Of, func(v uint64) error {
				if v == 424242 {
					sawMarker = true
				}
				n++
				sum += v
				return nil
			}); err != nil {
				return err
			}
			// Fail the first attempt that consumed the marker record —
			// after it has already consumed part of its input, so the
			// retry must rewind to see every record again.
			if sawMarker && failOnce.CompareAndSwap(true, false) {
				return errors.New("injected window failure")
			}
			w := hurricane.NewWriter(tc, 0, hurricane.PairOf(hurricane.Uint64Of, hurricane.Uint64Of))
			return w.Write(hurricane.Pair[uint64, uint64]{First: n, Second: sum})
		},
	})

	src := uintSource()
	h, err := hurricane.RunStream(ctx, cluster, hurricane.StreamSpec{
		Name:    "retry",
		App:     app,
		Sources: map[string]hurricane.StreamSource{"in": src.source()},
		Window:  time.Second,
		Origin:  testOrigin,
	})
	if err != nil {
		t.Fatal(err)
	}

	const windows = 4
	wantN := make([]uint64, windows)
	wantSum := make([]uint64, windows)
	for w := 0; w < windows; w++ {
		var recs []stream.Record[uint64]
		for i := 0; i < 100; i++ {
			v := uint64(w*100 + i)
			if w == 1 && i == 50 {
				v = 424242 // marker: window 1's first attempt fails
			}
			recs = append(recs, at(float64(w)+float64(i)/120.0, v))
			wantN[w]++
			wantSum[w] += v
		}
		src.push(recs...)
	}
	src.end()

	store := cluster.Store()
	for w := 0; w < windows; w++ {
		res, err := h.Next(ctx)
		if err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
		if res.Err != nil {
			t.Fatalf("window %d failed despite retry: %v", w, res.Err)
		}
		wantAttempts := 1
		if w == 1 {
			wantAttempts = 2
		}
		if res.Attempts != wantAttempts {
			t.Fatalf("window %d attempts = %d, want %d", w, res.Attempts, wantAttempts)
		}
		n, sum := collectSum(ctx, t, store, res.Bag("out"))
		if n != wantN[w] || sum != wantSum[w] {
			t.Fatalf("window %d: got n=%d sum=%d, want n=%d sum=%d (retry must replay exactly the sealed records)",
				w, n, sum, wantN[w], wantSum[w])
		}
	}
	if err := h.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestStreamDrainSealsPartialWindow checks the Drain/Shutdown ordering
// contract: draining mid-window seals the partial window, runs its job,
// and only then returns — no ingested record is stranded unsealed.
func TestStreamDrainSealsPartialWindow(t *testing.T) {
	ctx := testCtx(t)
	cluster := testCluster(t)
	defer cluster.Shutdown()

	src := uintSource()
	h, err := hurricane.RunStream(ctx, cluster, hurricane.StreamSpec{
		Name:    "drain",
		App:     sumApp(),
		Sources: map[string]hurricane.StreamSource{"in": src.source()},
		Window:  time.Hour, // the window would never seal by watermark
		Origin:  testOrigin,
	})
	if err != nil {
		t.Fatal(err)
	}
	src.push(at(0.1, 7), at(0.2, 8))
	// Wait until the records are ingested, then drain mid-window.
	deadline := time.Now().Add(5 * time.Second)
	for h.Stats().Ingested < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := h.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	res, err := h.Next(ctx)
	if err != nil {
		t.Fatalf("no window after drain: %v", err)
	}
	if res.Err != nil {
		t.Fatalf("partial window failed: %v", res.Err)
	}
	if res.Records != 2 {
		t.Fatalf("partial window sealed %d records, want 2", res.Records)
	}
	n, sum := collectSum(ctx, t, cluster.Store(), res.Bag("out"))
	if n != 2 || sum != 15 {
		t.Fatalf("partial window: n=%d sum=%d, want 2/15", n, sum)
	}
	if _, err := h.Next(ctx); err != io.EOF {
		t.Fatalf("after drain: err=%v, want io.EOF", err)
	}
}

// TestStreamShutdownMidWindow checks the regression the ordering fix
// targets: a Cluster.Shutdown issued mid-window (without Drain) must not
// deadlock the stream, and records sealed into completed windows stay
// readable.
func TestStreamShutdownMidWindow(t *testing.T) {
	ctx := testCtx(t)
	cluster := testCluster(t)

	src := uintSource()
	h, err := hurricane.RunStream(ctx, cluster, hurricane.StreamSpec{
		Name:    "shut",
		App:     sumApp(),
		Sources: map[string]hurricane.StreamSource{"in": src.source()},
		Window:  time.Second,
		Origin:  testOrigin,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Complete window 0, then leave window 1 open and shut the cluster down.
	src.push(at(0.1, 1), at(0.2, 2), at(0.3, 3))
	src.push(at(1.1, 50))
	w0, err := h.Next(ctx)
	if err != nil || w0.Err != nil {
		t.Fatalf("window 0: %v / %v", err, w0.Err)
	}
	store := cluster.Store()
	n, sum := collectSum(ctx, t, store, w0.Bag("out"))
	if n != 3 || sum != 6 {
		t.Fatalf("window 0: n=%d sum=%d, want 3/6", n, sum)
	}

	cluster.Shutdown()

	// Neither Drain nor Next may deadlock after an uncoordinated Shutdown.
	dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	_ = h.Drain(dctx)
	if dctx.Err() != nil {
		t.Fatal("Drain deadlocked after Shutdown")
	}
	for {
		res, err := h.Next(dctx)
		if err != nil {
			break // io.EOF or the stream's shutdown error — but never a hang
		}
		_ = res
	}
	if dctx.Err() != nil {
		t.Fatal("Next deadlocked after Shutdown")
	}
	// Window 0 completed before the shutdown; its sealed records and
	// outputs must still be readable from the in-process storage tier.
	n, sum = collectSum(ctx, t, store, w0.Bag("out"))
	if n != 3 || sum != 6 {
		t.Fatalf("window 0 results lost after shutdown: n=%d sum=%d", n, sum)
	}
	vals, err := hurricane.Collect(ctx, store, w0.Bag("in"), hurricane.Uint64Of)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 3 {
		t.Fatalf("window 0's sealed source records lost after shutdown: %d, want 3", len(vals))
	}
}

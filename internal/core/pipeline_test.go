package core

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bag"
	"repro/internal/chunk"
)

// TestPipelinedStreaming: a Pipelined consumer starts while its producer
// is still running, streams chunks as they appear, and still produces the
// exact result.
func TestPipelinedStreaming(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cluster, err := NewCluster(testClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	var producerDone atomic.Int64  // wall-clock ns when producer finished
	var consumerFirst atomic.Int64 // wall-clock ns of consumer's first chunk

	app := NewApp("stream")
	app.SourceBag("in").Bag("mid").Bag("out")
	app.AddTask(TaskSpec{
		Name:    "produce",
		Inputs:  []string{"in"},
		Outputs: []string{"mid"},
		NoClone: true,
		Run: func(tc *TaskCtx) error {
			w := chunk.NewWriter(256, func(c chunk.Chunk) error { return tc.Insert(0, c) })
			for {
				c, err := tc.Remove(0)
				if err == bag.ErrEmpty {
					producerDone.Store(time.Now().UnixNano())
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
					if err := w.Append(rec); err != nil {
						return err
					}
					// Throttle so the consumer demonstrably overlaps.
					time.Sleep(20 * time.Microsecond)
				}
			}
		},
	})
	app.AddTask(TaskSpec{
		Name:      "consume",
		Inputs:    []string{"mid"},
		Outputs:   []string{"out"},
		Pipelined: true,
		NoClone:   true,
		Run: func(tc *TaskCtx) error {
			var total int64
			first := true
			for {
				c, err := tc.Remove(0)
				if err == bag.ErrEmpty {
					break
				}
				if err != nil {
					return err
				}
				if first {
					consumerFirst.Store(time.Now().UnixNano())
					first = false
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
			w := chunk.NewWriter(256, func(c chunk.Chunk) error { return tc.Insert(0, c) })
			if err := w.Append(buf); err != nil {
				return err
			}
			return w.Flush()
		},
	})

	const n = 3000
	loadInts(t, ctx, cluster.Store(), "in", n)
	if err := cluster.Run(ctx, app); err != nil {
		t.Fatal(err)
	}
	want := int64(n) * (n - 1) / 2
	if got := readSum(t, ctx, cluster.Store()); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
	// The streaming property: the consumer saw its first chunk before the
	// producer finished.
	if consumerFirst.Load() == 0 || producerDone.Load() == 0 {
		t.Fatal("timestamps missing")
	}
	if consumerFirst.Load() >= producerDone.Load() {
		t.Errorf("consumer first chunk at %d, after producer finished at %d — no pipelining",
			consumerFirst.Load(), producerDone.Load())
	}
}

// TestPipelinedChain: a three-stage fully pipelined chain delivers the
// exact result.
func TestPipelinedChain(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cluster, err := NewCluster(testClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	copyTask := func(name, in, out string) TaskSpec {
		return TaskSpec{
			Name:      name,
			Inputs:    []string{in},
			Outputs:   []string{out},
			Pipelined: true,
			Run: func(tc *TaskCtx) error {
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
			},
		}
	}
	app := NewApp("chain")
	app.SourceBag("in").Bag("a").Bag("b").Bag("out")
	app.AddTask(copyTask("s1", "in", "a"))
	app.AddTask(copyTask("s2", "a", "b"))
	app.AddTask(copyTask("s3", "b", "out"))

	const n = 5000
	loadInts(t, ctx, cluster.Store(), "in", n)
	if err := cluster.Run(ctx, app); err != nil {
		t.Fatal(err)
	}
	// Count records in "out".
	sc := cluster.Store().Scanner("out")
	count := 0
	for {
		c, err := sc.Next(ctx)
		if err == bag.ErrAgain || err == bag.ErrEmpty {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		m, err := chunk.Count(c)
		if err != nil {
			t.Fatal(err)
		}
		count += m
	}
	if count != n {
		t.Fatalf("out has %d records, want %d", count, n)
	}
}

// TestPipelinedNotReadyWithoutProducers: a pipelined task whose input is
// an unsealed source bag must not start (no producers to stream from).
func TestPipelinedNotReadyWithoutProducers(t *testing.T) {
	app := NewApp("x")
	app.SourceBag("src").Bag("o")
	app.AddTask(TaskSpec{
		Name: "t", Inputs: []string{"src"}, Outputs: []string{"o"},
		Pipelined: true, Run: nop,
	})
	if err := app.Validate(); err != nil {
		t.Fatal(err)
	}
	// Master-side check: producersScheduled on a producer-less bag is
	// always false, so the task waits for the seal like any other.
	cluster, err := NewCluster(testClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()
	m := newMaster(app, cluster.Store(), &jobControl{c: cluster, job: "t"}, cluster.wake, nil, MasterConfig{})
	if m.producersScheduled("src") {
		t.Fatal("source bag must not be streamable")
	}
}

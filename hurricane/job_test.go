package hurricane_test

import (
	"context"
	"testing"
	"time"

	"repro/hurricane"
	"repro/internal/apps"
)

// squareSumApp is the shared quickstart graph: square a stream of
// integers, then sum the squares (merge reconciles clone partials).
func squareSumApp() *hurricane.App { return apps.SquareSumApp() }

// TestSubmitJobConcurrent runs two namespaced jobs of the same graph
// concurrently on one cluster through the public API and verifies both
// results, the name mapping, and the job stats surface.
func TestSubmitJobConcurrent(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cluster, err := hurricane.NewCluster(hurricane.ClusterConfig{
		StorageNodes: 4,
		ComputeNodes: 4,
		SlotsPerNode: 2,
		Node: hurricane.NodeConfig{
			MonitorInterval: 4 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()
	store := cluster.Store()

	jobs := make([]*hurricane.JobHandle, 2)
	sizes := []int{30000, 20000}
	for i, name := range []string{"alpha", "beta"} {
		h, err := cluster.SubmitJob(ctx, squareSumApp(), hurricane.JobConfig{Name: name})
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = h
		nums := make([]int64, sizes[i])
		for j := range nums {
			nums[j] = int64(j)
		}
		if err := hurricane.Load(ctx, store, h.Bag("nums"), hurricane.Int64Of, nums); err != nil {
			t.Fatal(err)
		}
		if err := hurricane.Seal(ctx, store, h.Bag("nums")); err != nil {
			t.Fatal(err)
		}
	}
	if got := jobs[0].Bag("total"); got != "alpha/total" {
		t.Fatalf("Bag mapping = %q, want alpha/total", got)
	}
	for i, h := range jobs {
		if err := h.Wait(ctx); err != nil {
			t.Fatalf("job %s: %v", h.ID(), err)
		}
		totals, err := hurricane.Collect(ctx, store, h.Bag("total"), hurricane.Int64Of)
		if err != nil {
			t.Fatal(err)
		}
		var got, want int64
		for _, v := range totals {
			got += v
		}
		for j := 0; j < sizes[i]; j++ {
			want += int64(j) * int64(j)
		}
		if got != want {
			t.Fatalf("job %s: sum of squares = %d, want %d", h.ID(), got, want)
		}
		if h.State() != hurricane.JobDone {
			t.Fatalf("job %s state = %v, want JobDone", h.ID(), h.State())
		}
		st := h.Stats()
		if st.State != "done" || st.Master.TasksFinished != 2 {
			t.Fatalf("job %s stats = %+v", h.ID(), st)
		}
	}

	// Discard wipes the first job's namespace and frees its name claims.
	if err := jobs[0].Discard(ctx); err != nil {
		t.Fatal(err)
	}
	leftover, err := hurricane.Collect(ctx, store, "alpha/total", hurricane.Int64Of)
	if err != nil {
		t.Fatal(err)
	}
	if len(leftover) != 0 {
		t.Fatalf("discarded job left %d records behind", len(leftover))
	}
	if _, err := cluster.SubmitJob(ctx, squareSumApp(), hurricane.JobConfig{Name: "alpha"}); err != nil {
		t.Fatalf("resubmission after discard: %v", err)
	}
}

package hurricane_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/hurricane"
	"repro/internal/apps"
	"repro/internal/workload"
)

// TestProfileZipfGroupBy is the profiler's end-to-end acceptance test: a
// Zipf(s=1.3) groupby runs to completion and JobHandle.Profile must
// return a critical path whose per-phase spans account for the measured
// job wall time within 10% — the gap is scheduler latency between
// stages, which the 1ms poll intervals keep small. It also checks the
// per-edge skew attribution and the exact shuffle record accounting.
func TestProfileZipfGroupBy(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cluster, err := hurricane.NewCluster(hurricane.ClusterConfig{
		StorageNodes: 4,
		ComputeNodes: 4,
		SlotsPerNode: 2,
		ChunkSize:    4 << 10,
		Node: hurricane.NodeConfig{
			MonitorInterval:   2 * time.Millisecond,
			HeartbeatInterval: 2 * time.Millisecond,
			// Reactive cloning off: a late-started clone can become a
			// stage's latest finisher, and its span — which starts
			// mid-stage — would legitimately undercount the stage's
			// elapsed time. The wall-accounting acceptance bound below
			// needs stage-covering spans, not mitigation behavior (that
			// is covered elsewhere).
			OverloadThreshold: 1.5,
		},
		Master: hurricane.MasterConfig{
			CloneInterval: 5 * time.Millisecond,
		},
		Sched: hurricane.SchedConfig{Interval: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	// 20k Zipf(1.3) tuples with 12µs of simulated per-record aggregation
	// cost: consumer compute dominates the run, so the profile has real
	// phase structure to account for — and the source load (which the
	// master waits out unprofiled before scheduling) stays a sliver of
	// the wall clock.
	tuples := workload.ZipfTuples(20000, 64, 1.3, 7)
	want := workload.KeyCounts(tuples)
	app := apps.GroupByApp(4, true, false, 0, 12000)

	// Load and seal the source before submitting: the master defers
	// scheduling until its source bags seal, and that wait is (by
	// design) not a task phase — pre-loading keeps the measured wall
	// clock purely about execution. The bag name is the job's namespace
	// mapping, checked against the handle below.
	const jobName = "zipf"
	srcBag := jobName + "/" + apps.GroupByIn
	store := cluster.Store()
	if err := apps.LoadGroupByInto(ctx, store, srcBag, tuples); err != nil {
		t.Fatal(err)
	}
	h, err := cluster.SubmitJob(ctx, app, hurricane.JobConfig{Name: jobName})
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Bag(apps.GroupByIn); got != srcBag {
		t.Fatalf("namespace mapping %q, want %q", got, srcBag)
	}
	if err := h.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	got, err := apps.CollectGroupByFrom(ctx, store, h.Bag(apps.GroupByOut))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d keys, want %d", len(got), len(want))
	}
	for k, n := range want {
		if got[k].Count != n {
			t.Fatalf("key %d: count %d, want %d", k, got[k].Count, n)
		}
	}

	p := h.Profile()
	if p == nil || p.Job != "zipf" {
		t.Fatalf("profile: %+v", p)
	}
	shuf, agg := p.Stage("shuffle"), p.Stage("aggregate")
	if shuf == nil || agg == nil {
		t.Fatalf("missing stages in profile:\n%s", p)
	}
	// The partitioned writer counts routed records exactly; clones
	// consume disjoint chunks, so the stage total is the input size.
	if shuf.Records != int64(len(tuples)) {
		t.Fatalf("shuffle stage routed %d records, want %d", shuf.Records, len(tuples))
	}
	if len(p.Critical) == 0 || p.Critical[len(p.Critical)-1].Task != "aggregate" {
		t.Fatalf("critical path %v must end at the aggregate stage", p.Critical)
	}

	// Acceptance: the critical path's phase spans account for the job
	// wall clock within 10%.
	diff := p.WallNS - p.CriticalNS
	if diff < 0 {
		diff = -diff
	}
	if diff > p.WallNS/10 {
		t.Fatalf("critical path %.1fms vs wall %.1fms (gap > 10%%):\n%s",
			float64(p.CriticalNS)/1e6, float64(p.WallNS)/1e6, p)
	}

	// Edge skew attribution for the namespaced shuffle edge.
	var found bool
	for _, e := range p.Edges {
		if strings.HasSuffix(e.Edge, "/"+apps.GroupByShuf) || e.Edge == apps.GroupByShuf {
			found = true
			if e.Consumer != "aggregate" {
				t.Fatalf("edge consumer %q", e.Consumer)
			}
			if e.MaxTaskNS <= 0 || e.P50TaskNS <= 0 || e.MaxTaskNS < e.P50TaskNS {
				t.Fatalf("edge task times: %+v", e)
			}
			if e.SlowestShare <= 0 || e.SlowestShare > 1 {
				t.Fatalf("slowest share %f", e.SlowestShare)
			}
		}
	}
	if !found {
		t.Fatalf("no skew attribution for edge %s: %+v", apps.GroupByShuf, p.Edges)
	}
}

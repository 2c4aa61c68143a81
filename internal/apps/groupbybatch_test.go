package apps

import (
	"strings"
	"testing"

	"repro/hurricane"
	"repro/internal/workload"
)

func runGroupBy(t *testing.T, app *hurricane.App, tuples []workload.Tuple,
	mutate func(*hurricane.ClusterConfig)) (map[uint64]GroupByResult, *hurricane.Cluster) {
	t.Helper()
	ctx := testCtx(t)
	cluster := shuffleTestCluster(t, mutate)
	if err := LoadGroupBy(ctx, cluster.Store(), tuples); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Run(ctx, app); err != nil {
		t.Fatal(err)
	}
	got, err := CollectGroupBy(ctx, cluster.Store())
	if err != nil {
		t.Fatal(err)
	}
	return got, cluster
}

// checkGroupByEquiv asserts two groupby results are identical — counts
// exactly, and HLL distinct estimates exactly too, because the batch
// path's AddUint64 produces bit-identical registers to the row path's Add
// and register-wise merging is order-independent.
func checkGroupByEquiv(t *testing.T, batch, row map[uint64]GroupByResult) {
	t.Helper()
	if len(batch) != len(row) {
		t.Errorf("batch has %d keys, row oracle has %d", len(batch), len(row))
	}
	for k, want := range row {
		got, ok := batch[k]
		if !ok {
			t.Errorf("key %d missing from batch output", k)
			continue
		}
		if got.Count != want.Count {
			t.Errorf("key %d: batch count %d, row count %d", k, got.Count, want.Count)
		}
		if got.Distinct != want.Distinct {
			t.Errorf("key %d: batch distinct %v, row distinct %v", k, got.Distinct, want.Distinct)
		}
	}
}

// TestGroupByBatchEquivalenceStatic: on static partitioning, the batched
// groupby is bit-identical to the row-path oracle, and the data actually
// moved as batch chunks.
func TestGroupByBatchEquivalenceStatic(t *testing.T) {
	gen := workload.RelationGen{Keys: 64, S: 1.3, Seed: 11}
	tuples := gen.Generate(30000)
	static := func(cfg *hurricane.ClusterConfig) {
		cfg.Master.DisableSplitting = true
		cfg.Master.DisableHeuristic = true
	}
	row, _ := runGroupBy(t, GroupByApp(4, false, true, 0), tuples, static)
	checkGroupByCounts(t, row, groundTruthCounts(tuples))

	batch, cluster := runGroupBy(t, GroupByBatchApp(4, false, true, 0), tuples, static)
	checkGroupByEquiv(t, batch, row)
	var batches float64
	for series, v := range cluster.Observer().Registry().Snapshot() {
		if strings.HasPrefix(series, "hurricane_chunk_batches_total") {
			batches += v
		}
	}
	if batches == 0 {
		t.Fatal("no batch chunks recorded — shuffle fell back to rows")
	}
}

// TestGroupByBatchEquivalenceMitigated is the required equivalence on
// Zipf(1.3) *including mid-run splits/isolations*: the batch data plane
// under live partition-map refinement must still match the row-path
// oracle exactly. Mitigation decisions race producer completion, so the
// run retries until a split or isolation demonstrably happened; every
// attempt must be correct regardless.
func TestGroupByBatchEquivalenceMitigated(t *testing.T) {
	gen := workload.RelationGen{Keys: 64, S: 1.3, Seed: 12}
	tuples := gen.Generate(60000)
	row, _ := runGroupBy(t, GroupByApp(4, true, true, 0), tuples,
		func(cfg *hurricane.ClusterConfig) {
			cfg.Master.DisableSplitting = true
			cfg.Master.DisableHeuristic = true
		})
	checkGroupByCounts(t, row, groundTruthCounts(tuples))

	for attempt := 0; attempt < 5; attempt++ {
		batch, cluster := runGroupBy(t, GroupByBatchApp(4, true, true, 0), tuples, nil)
		checkGroupByEquiv(t, batch, row)
		st := cluster.Master().Stats()
		if st.Splits+st.Isolations >= 1 {
			t.Logf("attempt %d: batch plane under mitigation, stats %+v", attempt, st)
			return
		}
		t.Logf("attempt %d: no mitigation triggered (stats %+v), retrying", attempt, st)
	}
	t.Fatal("no split/isolation ever triggered against the batch producer")
}

package apps

import (
	"testing"

	"repro/hurricane"
	"repro/hurricane/q"
	"repro/internal/workload"
)

// TestGroupByPlanMatchesHandWiredOracle runs the planner-built groupby
// and the hand-wired GroupByApp on identical Zipf input and asserts
// identical results — exact counts and identical HLL distinct estimates
// (HLL merging is order-independent, so both forms must land on the same
// registers).
func TestGroupByPlanMatchesHandWiredOracle(t *testing.T) {
	ctx := testCtx(t)
	gen := workload.RelationGen{Keys: 48, S: 1.1, Seed: 17}
	tuples := gen.Generate(15000)
	want := groundTruthCounts(tuples)

	// Hand-wired oracle run.
	oracleCluster := testCluster(t, nil)
	if err := LoadGroupBy(ctx, oracleCluster.Store(), tuples); err != nil {
		t.Fatal(err)
	}
	if err := oracleCluster.Run(ctx, GroupByApp(4, true, false, 0)); err != nil {
		t.Fatal(err)
	}
	oracle, err := CollectGroupBy(ctx, oracleCluster.Store())
	if err != nil {
		t.Fatal(err)
	}
	checkGroupByCounts(t, oracle, want)

	// Planner run on a fresh cluster, same input.
	planCluster := testCluster(t, nil)
	c, err := GroupByPlan().Compile(q.Options{Parts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := LoadGroupBy(ctx, planCluster.Store(), tuples); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(ctx, planCluster); err != nil {
		t.Fatal(err)
	}
	got, err := CollectGroupByFrom(ctx, planCluster.Store(), c.SinkBag(GroupByOut))
	if err != nil {
		t.Fatal(err)
	}
	checkGroupByCounts(t, got, want)
	for k, o := range oracle {
		if got[k].Distinct != o.Distinct {
			t.Errorf("key %d: plan distinct %f, oracle %f", k, got[k].Distinct, o.Distinct)
		}
	}
}

// TestHashJoinPlanMatchesHandWiredOracle runs the planner-built join and
// the hand-wired shuffle join on identical skewed relations and asserts
// both produce exactly the ground-truth number of matches.
func TestHashJoinPlanMatchesHandWiredOracle(t *testing.T) {
	ctx := testCtx(t)
	rGen := workload.RelationGen{Keys: 512, S: 0, Seed: 23}
	sGen := workload.RelationGen{Keys: 512, S: 1.2, Seed: 29}
	r := rGen.Generate(3000)
	s := sGen.Generate(20000)
	want := workload.JoinCount(r, s)

	oracleCluster := testCluster(t, nil)
	if err := LoadRelations(ctx, oracleCluster.Store(), r, s); err != nil {
		t.Fatal(err)
	}
	if err := oracleCluster.Run(ctx, HashJoinShuffleApp(4)); err != nil {
		t.Fatal(err)
	}
	oracle, err := JoinShuffleResultCount(ctx, oracleCluster.Store())
	if err != nil {
		t.Fatal(err)
	}
	if oracle != want {
		t.Fatalf("hand-wired join produced %d matches, want %d", oracle, want)
	}

	planCluster := testCluster(t, nil)
	// Warm statistics from the probe relation put the planner on the
	// skewed path — the adaptive counterpart of the hand-wired app.
	sb := hurricane.NewStatsBuilder()
	for _, tup := range s {
		sb.Add(q.KeyBytes(tup.Key), 1)
	}
	stats := q.NewStats()
	stats.Records[JoinBagR] = int64(len(r) + 10000) // known, too large to broadcast
	stats.Edges[JoinBagS] = sb.Stats()
	c, err := HashJoinPlan().Compile(q.Options{
		Parts:               4,
		BroadcastMaxRecords: 1000,
		Stats:               stats,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Joins[0].Strategy; got != q.JoinSkewed {
		t.Fatalf("planner chose %v, want skewed:\n%s", got, c.Explain())
	}
	if err := LoadRelations(ctx, planCluster.Store(), r, s); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(ctx, planCluster); err != nil {
		t.Fatal(err)
	}
	got, err := JoinShuffleResultCount(ctx, planCluster.Store())
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("plan join produced %d matches, want %d (oracle %d)", got, want, oracle)
	}
}

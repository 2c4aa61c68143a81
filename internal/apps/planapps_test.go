package apps

import (
	"sort"
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
	if err := oracleCluster.Run(ctx, GroupByApp(4, true, false, 0, 0)); err != nil {
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

// collectMatches reads the join matches out of bags, sorted, so two runs'
// outputs compare as multisets.
func collectMatches(t *testing.T, store *hurricane.Store, bags ...string) []hurricane.Pair[uint64, hurricane.Pair[uint64, uint64]] {
	t.Helper()
	var out []hurricane.Pair[uint64, hurricane.Pair[uint64, uint64]]
	for _, b := range bags {
		ms, err := hurricane.Collect(testCtx(t), store, b, MatchCodec)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ms...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.First != b.First {
			return a.First < b.First
		}
		if a.Second.First != b.Second.First {
			return a.Second.First < b.Second.First
		}
		return a.Second.Second < b.Second.Second
	})
	return out
}

// TestHashJoinPlanMatchesHandWiredOracle runs the planner-built join and
// the hand-wired HashJoinApp on identical skewed relations and asserts
// both produce the ground-truth number of matches and the same matches.
func TestHashJoinPlanMatchesHandWiredOracle(t *testing.T) {
	ctx := testCtx(t)
	rGen := workload.RelationGen{Keys: 512, S: 0, Seed: 23}
	sGen := workload.RelationGen{Keys: 512, S: 1.2, Seed: 29}
	r := rGen.Generate(3000)
	s := sGen.Generate(20000)
	want := workload.JoinCount(r, s)

	const parts = 4
	oracleCluster := testCluster(t, nil)
	if err := LoadRelations(ctx, oracleCluster.Store(), r, s); err != nil {
		t.Fatal(err)
	}
	if err := oracleCluster.Run(ctx, HashJoinApp(parts, false)); err != nil {
		t.Fatal(err)
	}
	outs := make([]string, parts)
	for p := range outs {
		outs[p] = JoinOut(p)
	}
	oracle := collectMatches(t, oracleCluster.Store(), outs...)
	if int64(len(oracle)) != want {
		t.Fatalf("hand-wired join produced %d matches, want %d", len(oracle), want)
	}

	planCluster := testCluster(t, nil)
	// Warm statistics from the probe relation put the planner on the
	// skewed path — the adaptive counterpart of the hand-wired app.
	stats := JoinWarmStats(r, s)
	stats.Records[JoinBagR] = int64(len(r) + 10000) // known, too large to broadcast
	c, err := HashJoinPlan().Compile(q.Options{
		Parts: parts,
		Stats: stats,
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
	got := collectMatches(t, planCluster.Store(), c.SinkBag(JoinShufOut))
	if len(got) != len(oracle) {
		t.Fatalf("plan join produced %d matches, hand-wired %d (want %d)", len(got), len(oracle), want)
	}
	for i := range got {
		if got[i] != oracle[i] {
			t.Fatalf("match %d of %d (sorted): plan %v, hand-wired %v", i, len(got), got[i], oracle[i])
		}
	}
}

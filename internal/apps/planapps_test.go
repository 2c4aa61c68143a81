package apps

import (
	"maps"
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

// TestHashJoinPlanMatchesHandWiredOracle runs the planner-built join, in
// the planner's form and compiled Static, and the hand-wired HashJoinApp
// on identical skewed relations and asserts all produce the ground-truth
// number of matches and the same matches.
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

	// The planner fuses the join into the probe scan, warm statistics or
	// not; compiled Static, it shuffles the probe like the hand-wired app.
	for _, tc := range []struct {
		name string
		opts q.Options
		want q.JoinStrategy
	}{
		{"auto", q.Options{Parts: parts, Stats: joinWarmStats(s)}, q.JoinBroadcast},
		{"static", q.Options{Parts: parts, Static: true}, q.JoinRepartition},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := HashJoinPlan().Compile(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := c.Joins[0].Strategy; got != tc.want || len(c.Seeds) != 0 {
				t.Fatalf("planner chose %v with %d seeds, want %v and none:\n%s", got, len(c.Seeds), tc.want, c.Explain())
			}
			planCluster := testCluster(t, nil)
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
		})
	}
}

// joinWarmStats is an exact key sketch of the probe relation under its
// head bag's name — what a previous run's merged edge sketch would have
// recorded, and what a join's form never depends on.
func joinWarmStats(s []workload.Tuple) *q.Stats {
	sb := hurricane.NewStatsBuilder()
	for _, t := range s {
		sb.Add(q.KeyBytes(t.Key), 1)
	}
	stats := q.NewStats()
	stats.Edges[JoinBagS] = sb.Stats()
	return stats
}

// TestUnpinnedJoinFusesAndClones: an unpinned join compiles to one stage
// with no shuffle edge, so its parallelism comes only from clones splitting
// the probe chunk by chunk — and under forced overload they do, with every
// key's match count exact however skewed the probe keys.
func TestUnpinnedJoinFusesAndClones(t *testing.T) {
	ctx := testCtx(t)
	rGen := workload.RelationGen{Keys: 256, S: 0, Seed: 23}
	r := rGen.Generate(1000)
	s := workload.ZipfTuples(60000, 256, 1.3, 29)
	c, err := HashJoinPlan().Compile(q.Options{Parts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if j := c.Joins[0]; j.Edge != "" || j.Strategy != q.JoinBroadcast {
		t.Fatalf("unpinned join compiled to %v on edge %q:\n%s", j.Strategy, j.Edge, c.Explain())
	}
	for _, st := range c.Stages {
		if st.WritesEdge || st.ConsumesEdge {
			t.Fatalf("stage %s shuffles:\n%s", st.Task, c.Explain())
		}
	}
	if len(c.Stages) != 1 {
		t.Fatalf("%d stages, want the one fused probe stage:\n%s", len(c.Stages), c.Explain())
	}

	cluster := testCluster(t, clonesForced)
	if err := LoadRelations(ctx, cluster.Store(), r, s); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(ctx, cluster); err != nil {
		t.Fatal(err)
	}
	requireClones(t, cluster.Master().Stats(), false)
	got, err := hurricane.Collect(ctx, cluster.Store(), c.SinkBag(JoinShufOut), MatchCodec)
	if err != nil {
		t.Fatal(err)
	}
	perKey := make(map[uint64]int64)
	for _, m := range got {
		perKey[m.First]++
	}
	builds := workload.KeyCounts(r)
	want := make(map[uint64]int64)
	for k, n := range workload.KeyCounts(s) {
		if builds[k] > 0 {
			want[k] = n * builds[k]
		}
	}
	if !maps.Equal(perKey, want) {
		t.Fatalf("per-key match counts differ from the oracle: %d keys, want %d", len(perKey), len(want))
	}
}

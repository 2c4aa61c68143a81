package apps

import (
	"context"
	"maps"
	"slices"
	"testing"

	"repro/hurricane"
	"repro/hurricane/q"
	"repro/internal/workload"
)

// TestGroupByPlanMatchesSerialOracle runs the planner-built groupby on Zipf
// input and asserts the serial answer: exact counts and exact HLL distinct
// estimates (HLL registers merge by max, so however the records split
// across workers they land on the serial sketch's registers).
func TestGroupByPlanMatchesSerialOracle(t *testing.T) {
	ctx := testCtx(t)
	gen := workload.RelationGen{Keys: 48, S: 1.1, Seed: 17}
	tuples := gen.Generate(15000)
	cluster := testCluster(t, nil)
	c, err := GroupByPlan().Compile(q.Options{Parts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := LoadGroupBy(ctx, cluster.Store(), tuples); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(ctx, cluster); err != nil {
		t.Fatal(err)
	}
	got, err := CollectGroupByFrom(ctx, cluster.Store(), c.SinkBag(GroupByOut))
	if err != nil {
		t.Fatal(err)
	}
	if want := SerialGroupBy(tuples); !maps.Equal(got, want) {
		t.Fatalf("plan groupby differs from the serial oracle:\n got %v\nwant %v", got, want)
	}
}

// joinForm names HashJoinPlan's physical forms: "auto" is the planner's
// (a broadcast join fused into the probe scan), "static" shuffles the
// probe to one join worker per partition.
func joinForm(static bool) string {
	if static {
		return "static"
	}
	return "auto"
}

// compileJoin compiles HashJoinPlan with opts and fails t unless the form
// is the one joinForm names, with no seed.
func compileJoin(t *testing.T, opts q.Options) *q.Compiled {
	t.Helper()
	c, err := HashJoinPlan().Compile(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := q.JoinBroadcast
	if opts.Static {
		want = q.JoinRepartition
	}
	if got := c.Joins[0].Strategy; got != want || len(c.Seeds) != 0 {
		t.Fatalf("planner chose %v with %d seeds, want %v and none:\n%s", got, len(c.Seeds), want, c.Explain())
	}
	return c
}

// runJoin loads r and s, runs c on cluster and fails t unless the matches
// are the serial ones, element by element in sorted order.
func runJoin(ctx context.Context, t *testing.T, cluster *hurricane.Cluster, c *q.Compiled, r, s []workload.Tuple) {
	t.Helper()
	if err := LoadRelations(ctx, cluster.Store(), r, s); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(ctx, cluster); err != nil {
		t.Fatal(err)
	}
	ms, err := hurricane.Collect(ctx, cluster.Store(), c.SinkBag(JoinShufOut), MatchCodec)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]workload.Match, len(ms))
	for i, m := range ms {
		got[i] = workload.Match{Key: m.First, R: m.Second.First, S: m.Second.Second}
	}
	workload.SortMatches(got)
	want := workload.JoinMatches(r, s)
	if len(got) != len(want) {
		t.Fatalf("join produced %d matches, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("match %d of %d (sorted): %+v, want %+v", i, len(got), got[i], want[i])
		}
	}
}

// TestHashJoinPlanMatchesSerialOracle runs the planner-built join in both
// forms, the planner's with warm statistics (which never change a join's
// form) and Static, and asserts the serial matches, on three build sides,
// which every join worker of either form loads whole: skewed with
// repeated keys (the table's two-pass layout), each key of 0..511 once
// (dense), and those keys times 3 (too sparse to be dense: hashed in
// place, and two probes in three miss).
func TestHashJoinPlanMatchesSerialOracle(t *testing.T) {
	rGen := workload.RelationGen{Keys: 512, S: 0, Seed: 23}
	sGen := workload.RelationGen{Keys: 512, S: 1.2, Seed: 29}
	s := sGen.Generate(20000)
	seq := workload.SeqRelation(512, 31)
	strided := slices.Clone(seq)
	for i := range strided {
		strided[i].Key *= 3
	}
	builds := []struct {
		name string
		r    []workload.Tuple
	}{{"skewed", rGen.Generate(3000)}, {"dense", seq}, {"sparse", strided}}
	for _, static := range []bool{false, true} {
		t.Run(joinForm(static), func(t *testing.T) {
			opts := q.Options{Parts: 4, Static: true}
			if !static {
				opts = q.Options{Parts: 4, Stats: joinWarmStats(s)}
			}
			for _, b := range builds {
				t.Run(b.name, func(t *testing.T) {
					runJoin(testCtx(t), t, testCluster(t, nil), compileJoin(t, opts), b.r, s)
				})
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

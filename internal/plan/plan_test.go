package plan

import (
	"strings"
	"testing"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/shuffle"
	"repro/internal/sketch"
)

// rowOnly hides a codec's columnar methods: the plans of these tests write
// row chunks and read batch chunks by re-framing them.
type rowOnly[T any] struct{ chunk.Codec[T] }

type tuple = chunk.Pair[uint64, uint64]
type keyCount = chunk.Pair[uint64, int64]

var (
	pairCodec chunk.Codec[tuple]    = rowOnly[tuple]{chunk.PairCodec[uint64, uint64]{A: chunk.Uint64Codec{}, B: chunk.Uint64Codec{}}}
	cntCodec  chunk.Codec[keyCount] = rowOnly[keyCount]{chunk.PairCodec[uint64, int64]{A: chunk.Uint64Codec{}, B: chunk.Int64Codec{}}}
)

func tupleKey(v tuple) uint64 { return v.First }

// countSpec is a count-by-key GroupBySpec for tests.
func countSpec() GroupBySpec[tuple, int64] {
	return GroupBySpec[tuple, int64]{
		Key:      tupleKey,
		AccCodec: rowOnly[int64]{chunk.Int64Codec{}},
		Init:     func() int64 { return 0 },
		Add:      func(acc int64, _ tuple) int64 { return acc + 1 },
		Merge:    func(a, b int64) int64 { return a + b },
	}
}

func joinSpec(strategy JoinStrategy) JoinSpec[tuple, tuple, tuple] {
	return JoinSpec[tuple, tuple, tuple]{
		BuildKey: tupleKey,
		ProbeKey: tupleKey,
		Codec:    pairCodec,
		Join: func(b, p tuple, emit func(tuple) error) error {
			return emit(tuple{First: p.First, Second: b.Second + p.Second})
		},
		Strategy: strategy,
	}
}

// zipfStats builds warm statistics where one key dominates.
func zipfStats(probeBag string, total int) *Stats {
	b := sketch.NewStatsBuilder()
	b.Add(KeyBytes(7), uint64(total/2)) // 50% on one key
	for k := uint64(0); k < 50; k++ {
		b.Add(KeyBytes(100+k), uint64(total/100))
	}
	st := NewStats()
	st.Edges[probeBag] = b.Stats()
	return st
}

func stageByTask(ph *Physical, task string) *StageInfo {
	for i := range ph.Stages {
		if ph.Stages[i].Task == task {
			return &ph.Stages[i]
		}
	}
	return nil
}

// findStage returns the stage whose output is the given bag.
func findStage(ph *Physical, out string) *StageInfo {
	for i := range ph.Stages {
		if ph.Stages[i].Output == out {
			return &ph.Stages[i]
		}
	}
	return nil
}

func TestCompileFusesNarrowChain(t *testing.T) {
	p := New("fuse")
	src := Scan(p, "in", pairCodec)
	f := Filter(p, src, func(v tuple) bool { return v.First%2 == 0 })
	m := Map(p, f, pairCodec, func(v tuple) (tuple, error) { return v, nil })
	p.Sink(m, "out")
	ph, err := Compile(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ph.Stages) != 1 {
		t.Fatalf("narrow chain compiled to %d stages, want 1:\n%s", len(ph.Stages), ph.Explain())
	}
	s := ph.Stages[0]
	if s.Consumes != "in" || s.Output != "out" {
		t.Fatalf("stage wiring %q -> %q, want in -> out", s.Consumes, s.Output)
	}
	if len(s.Ops) != 2 || s.Ops[0] != "filter" || s.Ops[1] != "map" {
		t.Fatalf("fused ops %v, want [filter map]", s.Ops)
	}
	if s.NoClone {
		t.Fatal("narrow streaming stage must be clonable")
	}
}

func TestCompileInsertsShuffleAtGroupBy(t *testing.T) {
	p := New("gb")
	src := Scan(p, "in", pairCodec)
	g := GroupBy(p, src, countSpec())
	p.Sink(g, "out")
	ph, err := Compile(p, Options{Parts: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(ph.Stages) != 2 {
		t.Fatalf("groupby compiled to %d stages, want 2 (producer+aggregate):\n%s", len(ph.Stages), ph.Explain())
	}
	edge := "gb.e1"
	spec := ph.App.BagSpecFor(edge)
	if spec == nil || spec.Partitions != 8 {
		t.Fatalf("edge %s not declared with 8 partitions: %+v", edge, spec)
	}
	if !spec.Spread {
		t.Fatal("adaptive groupby edge must declare Spread (mergeable partials)")
	}
	prod := findStage(ph, edge)
	if prod == nil || !prod.WritesEdge || prod.Consumes != "in" {
		t.Fatalf("producer stage wrong: %+v", prod)
	}
	agg := findStage(ph, "out")
	if agg == nil || !agg.ConsumesEdge || agg.Consumes != edge || agg.NoClone {
		t.Fatalf("aggregate stage wrong: %+v", agg)
	}
}

func TestCompileFinalizeAfterGroupBy(t *testing.T) {
	p := New("fin")
	src := Scan(p, "in", pairCodec)
	g := GroupBy(p, src, countSpec())
	m := Map(p, g, cntCodec, func(v keyCount) (keyCount, error) { return v, nil })
	p.Sink(m, "out")
	ph, err := Compile(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ph.Stages) != 3 {
		t.Fatalf("got %d stages, want 3 (producer, aggregate, finalize):\n%s", len(ph.Stages), ph.Explain())
	}
	fin := findStage(ph, "out")
	if fin == nil || fin.Head != "finalize" || !fin.NoClone {
		t.Fatalf("finalize stage wrong: %+v", fin)
	}
	if fin.Consumes != "fin.b1" {
		t.Fatalf("finalize consumes %q, want materialized partial bag fin.b1", fin.Consumes)
	}
}

func TestCompileTopKIsSerialFinalize(t *testing.T) {
	p := New("tk")
	src := Scan(p, "in", pairCodec)
	g := GroupBy(p, src, countSpec())
	tk := TopK(p, g, 3, func(a, b keyCount) bool { return a.Second < b.Second })
	p.Sink(tk, "out")
	ph, err := Compile(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := findStage(ph, "out")
	if s == nil || s.Head != "topk" || !s.NoClone {
		t.Fatalf("topk stage wrong: %+v", s)
	}
}

// TestCompileTopKDirectlyOnScan: TopK over a bare Scan must compile to a
// single finalize stage reading the source bag — a separate pass-through
// stage would be left with nothing to write (regression: this used to
// fail App.Validate with "writes source bag").
func TestCompileTopKDirectlyOnScan(t *testing.T) {
	p := New("tks")
	src := Scan(p, "in", pairCodec)
	tk := TopK(p, src, 2, func(a, b tuple) bool { return a.Second < b.Second })
	p.Sink(tk, "out")
	ph, err := Compile(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ph.Stages) != 1 {
		t.Fatalf("got %d stages, want 1:\n%s", len(ph.Stages), ph.Explain())
	}
	s := ph.Stages[0]
	if s.Consumes != "in" || s.Output != "out" || !s.NoClone {
		t.Fatalf("topk-on-scan stage wrong: %+v", s)
	}
}

// TestExplicitFanOneHonored: Options.Fan = 1 must not be coerced to the
// default — it requests isolation without record-level spreading.
func TestExplicitFanOneHonored(t *testing.T) {
	p := New("fan1")
	src := Scan(p, "in", pairCodec)
	g := GroupBy(p, src, countSpec())
	p.Sink(g, "out")
	ph, err := Compile(p, Options{Parts: 4, Fan: 1, Stats: zipfStats("in", 100000)})
	if err != nil {
		t.Fatal(err)
	}
	seed := ph.Seeds["fan1.e1"]
	if seed == nil || len(seed.Isolated) == 0 {
		t.Fatalf("expected seeded isolations: %+v", seed)
	}
	for _, iso := range seed.Isolated {
		if iso.Fan != 1 {
			t.Fatalf("explicit Fan 1 coerced to %d", iso.Fan)
		}
	}
}

func TestCompileStaticMode(t *testing.T) {
	p := New("st")
	src := Scan(p, "in", pairCodec)
	g := GroupBy(p, src, countSpec())
	p.Sink(g, "out")
	ph, err := Compile(p, Options{Static: true, Stats: zipfStats("in", 100000)})
	if err != nil {
		t.Fatal(err)
	}
	spec := ph.App.BagSpecFor("st.e1")
	if spec.Spread {
		t.Fatal("static mode must not declare Spread")
	}
	if len(ph.Seeds) != 0 {
		t.Fatalf("static mode produced %d seed maps, want 0", len(ph.Seeds))
	}
	agg := findStage(ph, "out")
	if !agg.NoClone {
		t.Fatal("static edge consumer must be NoClone (one reducer per partition)")
	}
}

func TestCompileGroupBySeedsFromWarmStats(t *testing.T) {
	p := New("warm")
	src := Scan(p, "in", pairCodec)
	g := GroupBy(p, src, countSpec())
	p.Sink(g, "out")
	ph, err := Compile(p, Options{Parts: 4, Stats: zipfStats("in", 100000)})
	if err != nil {
		t.Fatal(err)
	}
	seed := ph.Seeds["warm.e1"]
	if seed == nil {
		t.Fatalf("no seed map for warm.e1; seeds=%v", ph.Seeds)
	}
	if len(seed.Isolated) == 0 {
		t.Fatal("seed map has no isolated keys despite a dominant key holding half the records")
	}
	if !seed.IsIsolated(shuffle.KeyHash(KeyBytes(7))) {
		t.Fatal("dominant key 7 not isolated in seed map")
	}
	if seed.Version < 2 {
		t.Fatalf("seed version %d must be ≥ 2 to win over the locally derived base map", seed.Version)
	}
}

func TestJoinStrategySelection(t *testing.T) {
	build := func() (*Plan, *Node) {
		p := New("j")
		r := Scan(p, "relR", pairCodec)
		s := Scan(p, "relS", pairCodec)
		j := Join(p, r, s, joinSpec(JoinAuto))
		p.Sink(j, "out")
		return p, j
	}
	cases := []struct {
		name    string
		opts    Options
		want    JoinStrategy
		seeded  bool
		noClone bool
	}{
		{
			name: "broadcast when build side known small",
			opts: Options{Stats: &Stats{Records: map[string]int64{"relR": 1000}}},
			want: JoinBroadcast,
		},
		{
			name: "repartition without statistics",
			opts: Options{},
			want: JoinRepartition,
		},
		{
			name: "repartition when build side known large and no skew",
			opts: Options{Stats: &Stats{Records: map[string]int64{"relR": 1 << 20}}},
			want: JoinRepartition,
		},
		{
			name:   "skewed when warm sketch shows heavy probe keys",
			opts:   Options{Parts: 4, Stats: withRecords(zipfStats("relS", 200000), "relR", 1<<20)},
			want:   JoinSkewed,
			seeded: true,
		},
		{
			name:    "static pins repartition",
			opts:    Options{Static: true, Stats: withRecords(zipfStats("relS", 200000), "relR", 100)},
			want:    JoinRepartition,
			noClone: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, _ := build()
			ph, err := Compile(p, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(ph.Joins) != 1 {
				t.Fatalf("got %d join decisions", len(ph.Joins))
			}
			j := ph.Joins[0]
			if j.Strategy != tc.want {
				t.Fatalf("strategy %v (%s), want %v\n%s", j.Strategy, j.Reason, tc.want, ph.Explain())
			}
			if tc.seeded != (len(ph.Seeds) > 0) {
				t.Fatalf("seeded=%v, want %v (seeds=%v)", len(ph.Seeds) > 0, tc.seeded, ph.Seeds)
			}
			switch j.Strategy {
			case JoinBroadcast:
				if j.Edge != "" {
					t.Fatalf("broadcast join has edge %q", j.Edge)
				}
				s := findStage(ph, "out")
				if len(s.Scans) != 1 || s.Scans[0] != "relR" {
					t.Fatalf("broadcast join stage must scan relR: %+v", s)
				}
				if s.ConsumesEdge {
					t.Fatal("broadcast join must not consume an edge")
				}
			default:
				if j.Edge == "" {
					t.Fatal("shuffled join without an edge name")
				}
				if ph.App.BagSpecFor(j.Edge) == nil {
					t.Fatalf("edge %s not declared", j.Edge)
				}
				s := findStage(ph, "out")
				if !s.ConsumesEdge || s.NoClone != tc.noClone {
					t.Fatalf("join consumer stage wrong: %+v (want noClone=%v)", s, tc.noClone)
				}
			}
		})
	}
}

// withRecords adds a bag record count to stats (fixture helper).
func withRecords(s *Stats, bag string, n int64) *Stats {
	if s.Records == nil {
		s.Records = make(map[string]int64)
	}
	s.Records[bag] = n
	return s
}

func TestPinnedStrategyOverridesStats(t *testing.T) {
	p := New("pin")
	r := Scan(p, "relR", pairCodec)
	s := Scan(p, "relS", pairCodec)
	j := Join(p, r, s, joinSpec(JoinBroadcast))
	p.Sink(j, "out")
	// Stats say "huge build side" — the pin must win anyway.
	ph, err := Compile(p, Options{Stats: &Stats{Records: map[string]int64{"relR": 1 << 30}}})
	if err != nil {
		t.Fatal(err)
	}
	if ph.Joins[0].Strategy != JoinBroadcast {
		t.Fatalf("pinned strategy ignored: %+v", ph.Joins[0])
	}
}

func TestStatsFromMemoryRekeysAndSeeds(t *testing.T) {
	// Simulate a finished namespaced job's memory for edge warm.e1.
	prev := shuffle.BaseMap("job1/warm.e1", 4)
	prev.Splits = map[int]int{2: 4}
	prev.Version = 3
	b := sketch.NewStatsBuilder()
	b.Add(KeyBytes(7), 60000)
	b.Add(KeyBytes(9), 1000)
	mem := map[string]core.EdgeMemory{"job1/warm.e1": {PMap: prev, Stats: b.Stats()}}
	st := StatsFromMemory(mem, "job1")
	if st.PMaps["warm.e1"] == nil || st.Edges["warm.e1"] == nil {
		t.Fatalf("memory not re-keyed: pmaps=%v", st.PMaps)
	}

	p := New("warm")
	src := Scan(p, "in", pairCodec)
	g := GroupBy(p, src, countSpec())
	p.Sink(g, "out")
	ph, err := Compile(p, Options{Parts: 4, Stats: st})
	if err != nil {
		t.Fatal(err)
	}
	seed := ph.Seeds["warm.e1"]
	if seed == nil {
		t.Fatal("no seed from memory stats")
	}
	if seed.Splits[2] != 4 {
		t.Fatalf("previous split not transplanted: %v", seed.Splits)
	}
	if !seed.IsIsolated(shuffle.KeyHash(KeyBytes(7))) {
		t.Fatal("heavy key 7 not pre-isolated from memory sketch")
	}
}

func TestValidationErrors(t *testing.T) {
	t.Run("no sink", func(t *testing.T) {
		p := New("v")
		Scan(p, "in", pairCodec)
		if _, err := Compile(p, Options{}); err == nil {
			t.Fatal("want error for plan without sinks")
		}
	})
	t.Run("double consume", func(t *testing.T) {
		p := New("v")
		src := Scan(p, "in", pairCodec)
		a := Filter(p, src, func(tuple) bool { return true })
		b := Filter(p, src, func(tuple) bool { return true })
		p.Sink(a, "outA")
		p.Sink(b, "outB")
		if _, err := Compile(p, Options{}); err == nil || !strings.Contains(err.Error(), "consumed") {
			t.Fatalf("want double-consume error, got %v", err)
		}
	})
	t.Run("cross-plan dataset", func(t *testing.T) {
		p1 := New("v1")
		p2 := New("v2")
		foreign := Scan(p2, "other", pairCodec)
		mine := Scan(p1, "in", pairCodec)
		j := Join(p1, foreign, mine, joinSpec(JoinAuto))
		p1.Sink(j, "out")
		if _, err := Compile(p1, Options{}); err == nil || !strings.Contains(err.Error(), "cross") {
			t.Fatalf("want cross-plan error, got %v", err)
		}
	})
	t.Run("record type mismatch", func(t *testing.T) {
		p := New("v")
		counts := GroupBy(p, Scan(p, "in", pairCodec), countSpec())
		p.Sink(Filter(p, counts, func(tuple) bool { return true }), "out")
		if _, err := Compile(p, Options{}); err == nil || !strings.Contains(err.Error(), "holds") {
			t.Fatalf("want record-type error, got %v", err)
		}
	})
	t.Run("self join", func(t *testing.T) {
		p := New("v")
		src := Scan(p, "in", pairCodec)
		j := Join(p, src, src, joinSpec(JoinAuto))
		p.Sink(j, "out")
		if _, err := Compile(p, Options{}); err == nil {
			t.Fatal("want self-join error")
		}
	})
}

func TestExplainMentionsDecisions(t *testing.T) {
	p := New("ex")
	r := Scan(p, "relR", pairCodec)
	s := Scan(p, "relS", pairCodec)
	j := Join(p, r, s, joinSpec(JoinAuto))
	p.Sink(j, "out")
	ph, err := Compile(p, Options{Parts: 4, Stats: withRecords(zipfStats("relS", 200000), "relR", 1<<20)})
	if err != nil {
		t.Fatal(err)
	}
	out := ph.Explain()
	for _, want := range []string{"skewed", "seed", "edge-consumer", "shuffle-write"} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain missing %q:\n%s", want, out)
		}
	}
}

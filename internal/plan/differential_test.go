package plan

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/bag"
	"repro/internal/chunk"
	"repro/internal/core"
)

// interpret is the naive reference for a logical plan: one goroutine, one
// node at a time in creation order, one record at a time, every
// intermediate result a slice in memory. A GroupBy node's value is one
// finalized partial per key. It returns each sink's records.
func interpret(p *Plan, sources map[string][]any) (map[string][]any, error) {
	vals := make(map[*Node][]any)
	for _, n := range p.nodes {
		var out []any
		emit := func(v any) error {
			out = append(out, v)
			return nil
		}
		switch n.Kind() {
		case "scan":
			out = sources[n.bag]
		case "filter":
			pred := n.filterF()
			for _, v := range vals[n.in[0]] {
				if pred(v) {
					out = append(out, v)
				}
			}
		case "map":
			fn := n.mapF()
			for _, v := range vals[n.in[0]] {
				m, err := fn(v)
				if err != nil {
					return nil, err
				}
				out = append(out, m)
			}
		case "flatmap":
			fn := n.flatF()
			for _, v := range vals[n.in[0]] {
				if err := fn(v, emit); err != nil {
					return nil, err
				}
			}
		case "groupby":
			out = groupNaive(n.gb, vals[n.in[0]])
		case "join":
			for _, pr := range vals[n.in[1]] {
				for _, b := range vals[n.in[0]] {
					if n.join.BuildKey(b) == n.join.ProbeKey(pr) {
						if err := n.join.Join(b, pr, emit); err != nil {
							return nil, err
						}
					}
				}
			}
		case "topk":
			out = append(out, vals[n.in[0]]...)
			sort.SliceStable(out, func(i, j int) bool { return n.less(out[j], out[i]) })
			if len(out) > n.k {
				out = out[:n.k]
			}
		}
		vals[n] = out
	}
	sinks := make(map[string][]any)
	for _, s := range p.sinks {
		sinks[s.bag] = vals[s.node]
	}
	return sinks, nil
}

// groupNaive aggregates recs by key into one partial per key.
func groupNaive(g *GroupBySpec, recs []any) []any {
	accs := make(map[uint64]any)
	var order []uint64
	for _, v := range recs {
		k := g.Key(v)
		acc, ok := accs[k]
		if !ok {
			acc = g.Init()
			order = append(order, k)
		}
		accs[k] = g.Add(acc, v)
	}
	out := make([]any, 0, len(order))
	for _, k := range order {
		out = append(out, g.MakePartial(k, accs[k]))
	}
	return out
}

// runCompiled loads sources into a fresh cluster of the given worker
// count, runs the compiled plan, and returns each sink's records — with a
// directly sunk GroupBy's partials merged per key, as a reader of that
// sink must.
func runCompiled(t *testing.T, p *Plan, sources map[string][]any, workers int) (map[string][]any, error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cluster, err := core.NewCluster(core.ClusterConfig{
		StorageNodes: 2, ComputeNodes: workers, SlotsPerNode: 1,
		ChunkSize: 256, // a few dozen records a vector: many vectors, work for clones
		Node: core.NodeConfig{
			PollInterval: time.Millisecond, MonitorInterval: 2 * time.Millisecond,
			HeartbeatInterval: 2 * time.Millisecond, OverloadThreshold: 0.01,
		},
		Master: core.MasterConfig{CloneInterval: 2 * time.Millisecond, DisableHeuristic: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()
	store := cluster.Store()
	for name, recs := range sources {
		h := store.Bag(name)
		enc := pairCodec.NewEncoderAny(store.ChunkSize(), func(c chunk.Chunk, _ int) error { return h.Insert(ctx, c) })
		if err := enc.AppendRows(recs, nil); err != nil {
			t.Fatal(err)
		}
		if err := enc.Close(); err != nil {
			t.Fatal(err)
		}
		if err := store.Seal(ctx, name); err != nil {
			t.Fatal(err)
		}
	}
	ph, err := Compile(p, Options{Parts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := ph.Run(ctx, cluster); err != nil {
		return nil, err
	}
	sinks := make(map[string][]any)
	for _, s := range p.sinks {
		var recs []any
		decode := s.node.codec.NewDecoderAny()
		sc := store.Scanner(ph.SinkBag(s.bag))
		for {
			c, err := sc.Next(ctx)
			if err == bag.ErrEmpty || err == bag.ErrAgain {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if recs, err = decode(c, recs); err != nil {
				t.Fatal(err)
			}
		}
		if g := s.node.gb; g != nil {
			merged := make(map[uint64]any)
			if err := mergePartials(g, merged)(recs); err != nil {
				t.Fatal(err)
			}
			recs = partialsOf(g, merged)
		}
		sinks[s.bag] = recs
	}
	return sinks, nil
}

// canonical renders records order-independently.
func canonical(recs []any) []string {
	out := make([]string, len(recs))
	for i, v := range recs {
		out[i] = fmt.Sprint(v)
	}
	sort.Strings(out)
	return out
}

// TestCompiledPlansMatchInterpreter runs every operator in every chain
// position the compiler fuses differently — after a vector-preserving
// operator, after an expanding one, after an absorbing one, across a
// finalize boundary — on 1 and 4 workers, and compares each sink with the
// naive interpreter's.
func TestCompiledPlansMatchInterpreter(t *testing.T) {
	key := func(v any) uint64 { return v.(tuple).First }
	odd := func(v any) bool { return v.(tuple).Second%2 == 1 }
	none := func(any) bool { return false }
	double := func(v any) (any, error) {
		tu := v.(tuple)
		return tuple{First: tu.First, Second: 2 * tu.Second}, nil
	}
	errBoom := errors.New("boom at payload 777")
	boom := func(v any) (any, error) {
		if v.(tuple).Second == 777 {
			return nil, errBoom
		}
		return v, nil
	}
	repeat := func(times uint64) func(any, func(any) error) error {
		return func(v any, emit func(any) error) error {
			tu := v.(tuple)
			for i := uint64(0); i < times; i++ {
				if err := emit(tuple{First: tu.First, Second: tu.Second*times + i}); err != nil {
					return err
				}
			}
			return nil
		}
	}
	countToTuple := func(v any) (any, error) {
		kc := v.(keyCount)
		return tuple{First: kc.First, Second: uint64(kc.Second)}, nil
	}
	bySecondThenKey := func(a, b any) bool {
		x, y := a.(tuple), b.(tuple)
		if x.Second != y.Second {
			return x.Second < y.Second
		}
		return x.First > y.First
	}
	// A join whose build records are a GroupBy's finalized partials.
	countJoin := JoinSpec{
		BuildKey: func(v any) uint64 { return v.(keyCount).First },
		ProbeKey: key,
		Codec:    pairCodec,
		Join: func(b, pr any, emit func(any) error) error {
			return emit(tuple{First: pr.(tuple).First, Second: pr.(tuple).Second + uint64(b.(keyCount).Second)})
		},
	}

	// S: 1500 probe tuples, keys skewed toward 0, payloads 0..1499 (so
	// exactly one is 777). R: 40 build keys, every fourth one twice.
	sources := map[string][]any{"R": nil, "S": nil}
	x := uint64(1)
	for i := uint64(0); i < 1500; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		k := (x >> 33) % 64
		sources["S"] = append(sources["S"], tuple{First: k * k / 64, Second: i})
	}
	for k := uint64(0); k < 40; k++ {
		sources["R"] = append(sources["R"], tuple{First: k, Second: 1000 + k})
		if k%4 == 0 {
			sources["R"] = append(sources["R"], tuple{First: k, Second: 2000 + k})
		}
	}

	cases := []struct {
		name  string
		build func(p *Plan)
		fails error
	}{
		{name: "filter-map", build: func(p *Plan) {
			p.Sink(p.Map(p.Filter(p.Scan("S", pairCodec), odd), pairCodec, double), "out")
		}},
		{name: "flatmap-filter-map", build: func(p *Plan) {
			fm := p.FlatMap(p.Scan("S", pairCodec), pairCodec, repeat(3))
			p.Sink(p.Map(p.Filter(fm, odd), pairCodec, double), "out")
		}},
		{name: "flatmap-past-maxVector-filter", build: func(p *Plan) {
			// 2000 records out per record in: one input vector overflows
			// the operator's buffer several times.
			fm := p.FlatMap(p.Filter(p.Scan("R", pairCodec), odd), pairCodec, repeat(2000))
			p.Sink(p.Filter(fm, func(v any) bool { return v.(tuple).Second%97 == 0 }), "out")
		}},
		{name: "groupby-sunk", build: func(p *Plan) {
			p.Sink(p.GroupBy(p.Map(p.Scan("S", pairCodec), pairCodec, double), countSpec()), "out")
		}},
		{name: "groupby-map-topk", build: func(p *Plan) {
			g := p.GroupBy(p.Scan("S", pairCodec), countSpec())
			p.Sink(p.TopK(p.Map(g, pairCodec, countToTuple), 5, bySecondThenKey), "out")
		}},
		{name: "topk-on-scan", build: func(p *Plan) {
			p.Sink(p.TopK(p.Scan("S", pairCodec), 7, bySecondThenKey), "out")
		}},
		{name: "join-map", build: func(p *Plan) {
			j := p.Join(p.Scan("R", pairCodec), p.Scan("S", pairCodec), joinSpec(JoinRepartition))
			p.Sink(p.Map(j, pairCodec, double), "out")
		}},
		{name: "filter-broadcastjoin-flatmap-filter", build: func(p *Plan) {
			j := p.Join(p.Scan("R", pairCodec), p.Filter(p.Scan("S", pairCodec), odd), joinSpec(JoinBroadcast))
			p.Sink(p.Filter(p.FlatMap(j, pairCodec, repeat(2)), odd), "out")
		}},
		{name: "join-groupby", build: func(p *Plan) {
			j := p.Join(p.Scan("R", pairCodec), p.Scan("S", pairCodec), joinSpec(JoinRepartition))
			p.Sink(p.GroupBy(j, countSpec()), "out")
		}},
		{name: "join-build-is-groupby", build: func(p *Plan) {
			counts := p.GroupBy(p.Scan("R", pairCodec), countSpec())
			p.Sink(p.Join(counts, p.Scan("S", pairCodec), countJoin), "out")
		}},
		{name: "empty-vectors-groupby-map-topk", build: func(p *Plan) {
			nothing := p.Filter(p.Scan("S", pairCodec), none)
			g := p.GroupBy(p.Map(nothing, pairCodec, double), countSpec())
			p.Sink(p.TopK(p.Map(g, pairCodec, countToTuple), 3, bySecondThenKey), "out")
		}},
		{name: "empty-vectors-join-flatmap", build: func(p *Plan) {
			j := p.Join(p.Scan("R", pairCodec), p.Filter(p.Scan("S", pairCodec), none), joinSpec(JoinRepartition))
			p.Sink(p.FlatMap(j, pairCodec, repeat(2)), "out")
		}},
		{name: "map-errors-mid-vector", fails: errBoom, build: func(p *Plan) {
			p.Sink(p.Filter(p.Map(p.Scan("S", pairCodec), pairCodec, boom), odd), "out")
		}},
		{name: "map-errors-after-join", fails: errBoom, build: func(p *Plan) {
			j := p.Join(p.Scan("R", pairCodec), p.Scan("S", pairCodec), JoinSpec{
				BuildKey: key, ProbeKey: key, Codec: pairCodec,
				Join: func(_, pr any, emit func(any) error) error { return emit(pr) },
			})
			p.Sink(p.Map(j, pairCodec, boom), "out")
		}},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/%dw", tc.name, workers), func(t *testing.T) {
				p := New("d")
				tc.build(p)
				want, wantErr := interpret(p, sources)
				got, err := runCompiled(t, p, sources, workers)
				if tc.fails != nil {
					if !errors.Is(wantErr, tc.fails) {
						t.Fatalf("interpreter: err = %v, want %v", wantErr, tc.fails)
					}
					if err == nil || !strings.Contains(err.Error(), tc.fails.Error()) {
						t.Fatalf("compiled plan: err = %v, want one naming %q", err, tc.fails)
					}
					return
				}
				if wantErr != nil || err != nil {
					t.Fatalf("interpreter err %v, compiled plan err %v", wantErr, err)
				}
				for sink, recs := range want {
					w, g := canonical(recs), canonical(got[sink])
					if len(w) != len(g) {
						t.Fatalf("sink %s: %d records, interpreter has %d", sink, len(g), len(w))
					}
					for i := range w {
						if w[i] != g[i] {
							t.Fatalf("sink %s: sorted record %d of %d is %s, interpreter has %s", sink, i, len(w), g[i], w[i])
						}
					}
				}
			})
		}
	}
}

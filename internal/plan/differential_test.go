package plan

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/bag"
	"repro/internal/chunk"
	"repro/internal/core"
)

// ds is one dataset of a differential case in both worlds: the node the
// generic constructors built, and eval — the naive reference for it: one
// goroutine, one record at a time, every intermediate result a slice in
// memory, no engine kernel called. A GroupBy's value is one finalized
// partial per key.
type ds[T any] struct {
	n     *Node
	codec chunk.Codec[T]
	eval  func() ([]T, error)
	// settle is what a reader of the directly sunk dataset must do to its
	// records: merge a GroupBy's partials per key. Nil otherwise.
	settle func([]T) []T
}

// world is one differential case under construction.
type world struct {
	p     *Plan
	loads map[string]func(ctx context.Context, store *bag.Store) error
	sinks map[string]sinkD
}

// sinkD is one sink: the interpreter's records, and how to read the
// compiled plan's.
type sinkD struct {
	want func() ([]string, error)
	got  func(ctx context.Context, store *bag.Store, bagName string) ([]string, error)
}

func scanD[T any](w *world, name string, codec chunk.Codec[T], recs []T) ds[T] {
	w.loads[name] = func(ctx context.Context, store *bag.Store) error {
		return loadBag(ctx, store, name, codec, recs)
	}
	return ds[T]{n: Scan(w.p, name, codec), codec: codec, eval: func() ([]T, error) { return recs, nil }}
}

func filterD[T any](w *world, in ds[T], pred func(T) bool) ds[T] {
	return ds[T]{n: Filter(w.p, in.n, pred), codec: in.codec, eval: func() ([]T, error) {
		recs, err := in.eval()
		var out []T
		for _, v := range recs {
			if pred(v) {
				out = append(out, v)
			}
		}
		return out, err
	}}
}

func mapD[T, U any](w *world, in ds[T], codec chunk.Codec[U], fn func(T) (U, error)) ds[U] {
	return flatD(in, Map(w.p, in.n, codec, fn), codec, func(v T, emit func(U) error) error {
		u, err := fn(v)
		if err != nil {
			return err
		}
		return emit(u)
	})
}

func flatMapD[T, U any](w *world, in ds[T], codec chunk.Codec[U], fn func(T, func(U) error) error) ds[U] {
	return flatD(in, FlatMap(w.p, in.n, codec, fn), codec, fn)
}

// flatD is the interpreter for a per-record operator.
func flatD[T, U any](in ds[T], n *Node, codec chunk.Codec[U], each func(T, func(U) error) error) ds[U] {
	return ds[U]{n: n, codec: codec, eval: func() ([]U, error) {
		recs, err := in.eval()
		if err != nil {
			return nil, err
		}
		var out []U
		for _, v := range recs {
			if err := each(v, func(u U) error { out = append(out, u); return nil }); err != nil {
				return nil, err
			}
		}
		return out, nil
	}}
}

// foldByKey aggregates recs into one (key, accumulator) per key, in
// first-seen order.
func foldByKey[T, A any](recs []T, key func(T) uint64, fresh func(T) A, add func(A, T) A) []chunk.Pair[uint64, A] {
	accs := make(map[uint64]A)
	var order []uint64
	for _, v := range recs {
		k := key(v)
		if acc, ok := accs[k]; ok {
			accs[k] = add(acc, v)
		} else {
			accs[k] = fresh(v)
			order = append(order, k)
		}
	}
	out := make([]chunk.Pair[uint64, A], len(order))
	for i, k := range order {
		out[i] = chunk.Pair[uint64, A]{First: k, Second: accs[k]}
	}
	return out
}

func groupByD[T, A any](w *world, in ds[T], spec GroupBySpec[T, A]) ds[chunk.Pair[uint64, A]] {
	type partial = chunk.Pair[uint64, A]
	codec := chunk.Codec[partial](chunk.PairCodec[uint64, A]{A: chunk.Uint64Codec{}, B: spec.AccCodec})
	return ds[partial]{n: GroupBy(w.p, in.n, spec), codec: codec,
		eval: func() ([]partial, error) {
			recs, err := in.eval()
			return foldByKey(recs, spec.Key, func(v T) A { return spec.Add(spec.Init(), v) }, spec.Add), err
		},
		settle: func(recs []partial) []partial {
			return foldByKey(recs, func(v partial) uint64 { return v.First },
				func(v partial) A { return v.Second }, func(a A, v partial) A { return spec.Merge(a, v.Second) })
		},
	}
}

func joinD[L, R, O any](w *world, build ds[L], probe ds[R], spec JoinSpec[L, R, O]) ds[O] {
	return flatD(probe, Join(w.p, build.n, probe.n, spec), spec.Codec, func(pr R, emit func(O) error) error {
		rows, err := build.eval()
		if err != nil {
			return err
		}
		for _, b := range rows {
			if spec.BuildKey(b) == spec.ProbeKey(pr) {
				if err := spec.Join(b, pr, emit); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

func topKD[T any](w *world, in ds[T], k int, less func(a, b T) bool) ds[T] {
	return ds[T]{n: TopK(w.p, in.n, k, less), codec: in.codec, eval: func() ([]T, error) {
		recs, err := in.eval()
		out := append([]T(nil), recs...)
		sort.SliceStable(out, func(i, j int) bool { return less(out[j], out[i]) })
		if len(out) > k {
			out = out[:k]
		}
		return out, err
	}}
}

// sinkTo sinks d into bagName in both worlds.
func sinkTo[T any](w *world, d ds[T], bagName string) {
	w.p.Sink(d.n, bagName)
	w.sinks[bagName] = sinkD{
		want: func() ([]string, error) {
			recs, err := d.eval()
			return canonical(recs), err
		},
		got: func(ctx context.Context, store *bag.Store, physical string) ([]string, error) {
			var recs []T
			dec, sc := chunk.NewDecoder(d.codec), store.Scanner(physical)
			for {
				c, err := sc.Next(ctx)
				if err == bag.ErrEmpty || err == bag.ErrAgain {
					break
				}
				if err != nil {
					return nil, err
				}
				if recs, err = dec.Decode(c, recs); err != nil {
					return nil, err
				}
			}
			if d.settle != nil {
				recs = d.settle(recs)
			}
			return canonical(recs), nil
		},
	}
}

// runCompiled loads the sources into a fresh cluster of the given worker
// count, runs the compiled plan, and returns each sink's records — with a
// directly sunk GroupBy's partials merged per key, as a reader of that
// sink must.
func runCompiled(t *testing.T, w *world, workers int) (map[string][]string, error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cluster, err := core.NewCluster(core.ClusterConfig{
		StorageNodes: 2, ComputeNodes: workers, SlotsPerNode: 1,
		ChunkSize: 256, // a few dozen records a vector: many vectors, work for clones
		Node: core.NodeConfig{
			MonitorInterval:   2 * time.Millisecond,
			HeartbeatInterval: 2 * time.Millisecond, OverloadThreshold: 0.01,
		},
		Master: core.MasterConfig{CloneInterval: 2 * time.Millisecond, StorageBandwidth: math.Inf(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()
	store := cluster.Store()
	for _, load := range w.loads {
		if err := load(ctx, store); err != nil {
			t.Fatal(err)
		}
	}
	ph, err := Compile(w.p, Options{Parts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := ph.Run(ctx, cluster); err != nil {
		return nil, err
	}
	sinks := make(map[string][]string)
	for name, s := range w.sinks {
		if sinks[name], err = s.got(ctx, store, ph.SinkBag(name)); err != nil {
			t.Fatal(err)
		}
	}
	return sinks, nil
}

// canonical renders records order-independently.
func canonical[T any](recs []T) []string {
	out := make([]string, len(recs))
	for i, v := range recs {
		out[i] = fmt.Sprint(v)
	}
	sort.Strings(out)
	return out
}

// Record types the tuple plans never exercise.
type (
	word  = chunk.Pair[string, string]                     // string keys and values
	match = chunk.Pair[uint64, tuple]                      // a nested Pair
	blob  = chunk.Pair[uint64, []byte]                     // byte payloads, under a row-only codec
	tally = chunk.Pair[uint64, chunk.Pair[uint64, string]] // an accumulator that is a record itself
)

var (
	wordCodec  chunk.Codec[word]  = chunk.PairCodec[string, string]{A: chunk.StringCodec{}, B: chunk.StringCodec{}}
	matchCodec chunk.Codec[match] = chunk.PairCodec[uint64, tuple]{A: chunk.Uint64Codec{}, B: chunk.PairCodec[uint64, uint64]{A: chunk.Uint64FixedCodec{}, B: chunk.Uint64FixedCodec{}}}
	blobCodec  chunk.Codec[blob]  = rowOnly[blob]{chunk.PairCodec[uint64, []byte]{A: chunk.Uint64Codec{}, B: chunk.BytesCodec{}}}
)

func wordKey(v word) uint64 {
	h := fnv.New64a()
	h.Write([]byte(v.First))
	return h.Sum64()
}

// TestCompiledPlansMatchInterpreter runs every operator in every chain
// position the compiler fuses differently — after a vector-preserving
// operator, after an expanding one, after an absorbing one, across a
// finalize boundary — over records of several shapes and every build-side
// shape the join table must get right, on 1 and 4 workers, and compares
// each sink with the naive interpreter's.
func TestCompiledPlansMatchInterpreter(t *testing.T) {
	odd := func(v tuple) bool { return v.Second%2 == 1 }
	none := func(tuple) bool { return false }
	double := func(v tuple) (tuple, error) { return tuple{First: v.First, Second: 2 * v.Second}, nil }
	errBoom := errors.New("boom at payload 777")
	boom := func(v tuple) (tuple, error) {
		if v.Second == 777 {
			return tuple{}, errBoom
		}
		return v, nil
	}
	repeat := func(times uint64) func(tuple, func(tuple) error) error {
		return func(v tuple, emit func(tuple) error) error {
			for i := uint64(0); i < times; i++ {
				if err := emit(tuple{First: v.First, Second: v.Second*times + i}); err != nil {
					return err
				}
			}
			return nil
		}
	}
	countToTuple := func(kc keyCount) (tuple, error) { return tuple{First: kc.First, Second: uint64(kc.Second)}, nil }
	bySecondThenKey := func(x, y tuple) bool {
		if x.Second != y.Second {
			return x.Second < y.Second
		}
		return x.First > y.First
	}
	// A join whose build records are a GroupBy's finalized partials.
	countJoin := JoinSpec[keyCount, tuple, tuple]{
		BuildKey: func(v keyCount) uint64 { return v.First },
		ProbeKey: tupleKey,
		Codec:    pairCodec,
		Join: func(b keyCount, pr tuple, emit func(tuple) error) error {
			return emit(tuple{First: pr.First, Second: pr.Second + uint64(b.Second)})
		},
	}
	// A join into a nested record that keeps both payloads.
	matchJoin := JoinSpec[tuple, tuple, match]{
		BuildKey: tupleKey, ProbeKey: tupleKey, Codec: matchCodec,
		Join: func(b, pr tuple, emit func(match) error) error {
			return emit(match{First: pr.First, Second: tuple{First: b.Second, Second: pr.Second}})
		},
		Strategy: JoinRepartition,
	}

	// S: 1500 probe tuples, keys skewed toward 0, payloads 0..1499 (so
	// exactly one is 777). R: 40 build keys, every fourth one twice. H: key
	// 0 three thousand times over — one probe record past maxVector — and
	// odd keys once. W, B: S as words and as byte payloads of 0..9 bytes.
	var recsS, recsR, recsH []tuple
	var recsW []word
	var recsB []blob
	x := uint64(1)
	for i := uint64(0); i < 1500; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		k := (x >> 33) % 64
		k = k * k / 64
		recsS = append(recsS, tuple{First: k, Second: i})
		recsW = append(recsW, word{First: fmt.Sprintf("w%d", k), Second: fmt.Sprintf("v%04d", i)})
		recsB = append(recsB, blob{First: k, Second: bytes.Repeat([]byte{byte(i)}, int(i%10))})
	}
	for k := uint64(0); k < 40; k++ {
		recsR = append(recsR, tuple{First: k, Second: 1000 + k})
		if k%4 == 0 {
			recsR = append(recsR, tuple{First: k, Second: 2000 + k})
		}
	}
	for i := uint64(0); i < 3000; i++ {
		recsH = append(recsH, tuple{First: 0, Second: i})
		if i < 64 && i%2 == 1 {
			recsH = append(recsH, tuple{First: i, Second: 5000 + i})
		}
	}
	S := func(w *world) ds[tuple] { return scanD(w, "S", pairCodec, recsS) }
	R := func(w *world) ds[tuple] { return scanD(w, "R", pairCodec, recsR) }

	cases := []struct {
		name  string
		build func(w *world)
		fails error
	}{
		{name: "filter-map", build: func(w *world) {
			sinkTo(w, mapD(w, filterD(w, S(w), odd), pairCodec, double), "out")
		}},
		{name: "flatmap-filter-map", build: func(w *world) {
			fm := flatMapD(w, S(w), pairCodec, repeat(3))
			sinkTo(w, mapD(w, filterD(w, fm, odd), pairCodec, double), "out")
		}},
		{name: "flatmap-past-maxVector-filter", build: func(w *world) {
			// 2000 records out per record in: one input vector overflows
			// the operator's buffer several times.
			fm := flatMapD(w, filterD(w, R(w), odd), pairCodec, repeat(2000))
			sinkTo(w, filterD(w, fm, func(v tuple) bool { return v.Second%97 == 0 }), "out")
		}},
		{name: "groupby-sunk", build: func(w *world) {
			sinkTo(w, groupByD(w, mapD(w, S(w), pairCodec, double), countSpec()), "out")
		}},
		{name: "groupby-map-topk", build: func(w *world) {
			g := groupByD(w, S(w), countSpec())
			sinkTo(w, topKD(w, mapD(w, g, pairCodec, countToTuple), 5, bySecondThenKey), "out")
		}},
		{name: "topk-on-scan", build: func(w *world) {
			sinkTo(w, topKD(w, S(w), 7, bySecondThenKey), "out")
		}},
		{name: "join-map", build: func(w *world) {
			sinkTo(w, mapD(w, joinD(w, R(w), S(w), joinSpec(JoinRepartition)), pairCodec, double), "out")
		}},
		{name: "filter-broadcastjoin-flatmap-filter", build: func(w *world) {
			j := joinD(w, R(w), filterD(w, S(w), odd), joinSpec(JoinBroadcast))
			sinkTo(w, filterD(w, flatMapD(w, j, pairCodec, repeat(2)), odd), "out")
		}},
		{name: "join-groupby", build: func(w *world) {
			sinkTo(w, groupByD(w, joinD(w, R(w), S(w), joinSpec(JoinRepartition)), countSpec()), "out")
		}},
		{name: "join-build-is-groupby", build: func(w *world) {
			sinkTo(w, joinD(w, groupByD(w, R(w), countSpec()), S(w), countJoin), "out")
		}},
		{name: "empty-vectors-groupby-map-topk", build: func(w *world) {
			g := groupByD(w, mapD(w, filterD(w, S(w), none), pairCodec, double), countSpec())
			sinkTo(w, topKD(w, mapD(w, g, pairCodec, countToTuple), 3, bySecondThenKey), "out")
		}},
		{name: "empty-vectors-join-flatmap", build: func(w *world) {
			j := joinD(w, R(w), filterD(w, S(w), none), joinSpec(JoinRepartition))
			sinkTo(w, flatMapD(w, j, pairCodec, repeat(2)), "out")
		}},
		{name: "map-errors-mid-vector", fails: errBoom, build: func(w *world) {
			sinkTo(w, filterD(w, mapD(w, S(w), pairCodec, boom), odd), "out")
		}},
		{name: "map-errors-after-join", fails: errBoom, build: func(w *world) {
			j := joinD(w, R(w), S(w), JoinSpec[tuple, tuple, tuple]{
				BuildKey: tupleKey, ProbeKey: tupleKey, Codec: pairCodec,
				Join: func(_, pr tuple, emit func(tuple) error) error { return emit(pr) },
			})
			sinkTo(w, mapD(w, j, pairCodec, boom), "out")
		}},

		// Record shapes.
		{name: "strings-filter-groupby-topk", build: func(w *world) {
			// Longest value per word, then the three greatest words.
			kept := filterD(w, scanD(w, "W", wordCodec, recsW), func(v word) bool { return !strings.HasSuffix(v.Second, "3") })
			longest := groupByD(w, kept, GroupBySpec[word, chunk.Pair[uint64, string]]{
				Key:      wordKey,
				AccCodec: chunk.PairCodec[uint64, string]{A: chunk.Uint64Codec{}, B: chunk.StringCodec{}},
				Init:     func() chunk.Pair[uint64, string] { return chunk.Pair[uint64, string]{} },
				Add: func(a chunk.Pair[uint64, string], v word) chunk.Pair[uint64, string] {
					return chunk.Pair[uint64, string]{First: a.First + 1, Second: max(a.Second, v.First+"="+v.Second)}
				},
				Merge: func(a, b chunk.Pair[uint64, string]) chunk.Pair[uint64, string] {
					return chunk.Pair[uint64, string]{First: a.First + b.First, Second: max(a.Second, b.Second)}
				},
			})
			sinkTo(w, topKD(w, longest, 3, func(a, b tally) bool { return a.Second.Second < b.Second.Second }), "out")
		}},
		{name: "strings-join-strings", build: func(w *world) {
			// Words against themselves, thinned: string build rows in the table.
			thin := func(v word) bool { return strings.HasSuffix(v.Second, "7") }
			j := joinD(w, filterD(w, scanD(w, "W2", wordCodec, recsW), thin), scanD(w, "W", wordCodec, recsW),
				JoinSpec[word, word, word]{
					BuildKey: wordKey, ProbeKey: wordKey, Codec: wordCodec,
					Join: func(b, pr word, emit func(word) error) error {
						return emit(word{First: pr.First, Second: b.Second + "+" + pr.Second})
					},
				})
			sinkTo(w, j, "out")
		}},
		{name: "nested-pair-join-map-groupby", build: func(w *world) {
			flat := mapD(w, joinD(w, R(w), S(w), matchJoin), pairCodec, func(m match) (tuple, error) {
				return tuple{First: m.First % 7, Second: m.Second.First + m.Second.Second}, nil
			})
			sinkTo(w, groupByD(w, flat, countSpec()), "out")
		}},
		{name: "bytes-rowonly-flatmap-join", build: func(w *world) {
			// Byte payloads alias their chunk all the way through a FlatMap,
			// a shuffle edge and the build table.
			halves := flatMapD(w, scanD(w, "B", blobCodec, recsB), blobCodec, func(v blob, emit func(blob) error) error {
				if err := emit(blob{First: v.First, Second: v.Second[:len(v.Second)/2]}); err != nil {
					return err
				}
				return emit(blob{First: v.First, Second: v.Second[len(v.Second)/2:]})
			})
			build := filterD(w, scanD(w, "B2", blobCodec, recsB), func(v blob) bool { return len(v.Second) == 9 })
			sinkTo(w, joinD(w, build, halves, JoinSpec[blob, blob, blob]{
				BuildKey: func(v blob) uint64 { return v.First }, ProbeKey: func(v blob) uint64 { return v.First }, Codec: blobCodec,
				Join: func(b, pr blob, emit func(blob) error) error {
					return emit(blob{First: pr.First, Second: append(append([]byte(nil), b.Second[:2]...), pr.Second...)})
				},
			}), "out")
		}},

		// Build-side shapes.
		{name: "join-many-to-many-past-maxVector", build: func(w *world) {
			// Three thousand build rows under key 0: every probe record of
			// that key overflows the join's buffer by itself. Absent probe
			// keys (the even ones) match nothing.
			j := joinD(w, scanD(w, "H", pairCodec, recsH), S(w), joinSpec(JoinRepartition))
			sinkTo(w, filterD(w, j, func(v tuple) bool { return v.Second%97 == 0 }), "out")
		}},
		{name: "join-empty-build", build: func(w *world) {
			sinkTo(w, joinD(w, filterD(w, R(w), none), S(w), joinSpec(JoinRepartition)), "out")
		}},
		{name: "join-no-probe-key-in-build", build: func(w *world) {
			far := mapD(w, R(w), pairCodec, func(v tuple) (tuple, error) { return tuple{First: v.First + 1000, Second: v.Second}, nil })
			sinkTo(w, joinD(w, far, S(w), joinSpec(JoinBroadcast)), "out")
		}},
		{name: "two-joins-share-build-scan", build: func(w *world) {
			// One Scan node is the build side of a shuffled join and of the
			// broadcast join fused behind it, under different build keys.
			r := R(w)
			byPayload := joinSpec(JoinBroadcast)
			byPayload.BuildKey = func(v tuple) uint64 { return v.Second % 50 }
			sinkTo(w, joinD(w, r, joinD(w, r, S(w), joinSpec(JoinRepartition)), byPayload), "out")
		}},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/%dw", tc.name, workers), func(t *testing.T) {
				w := &world{p: New("d"), loads: map[string]func(context.Context, *bag.Store) error{}, sinks: map[string]sinkD{}}
				tc.build(w)
				want := make(map[string][]string)
				var wantErr error
				for name, s := range w.sinks {
					if want[name], wantErr = s.want(); wantErr != nil {
						break
					}
				}
				got, err := runCompiled(t, w, workers)
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
				for sink, w := range want {
					g := got[sink]
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

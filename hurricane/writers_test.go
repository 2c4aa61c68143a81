package hurricane_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/hurricane"
	"repro/hurricane/q"
	"repro/internal/bag"
	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/shuffle"
	"repro/internal/sketch"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/workload"
)

type tuple = hurricane.Pair[uint64, uint64]

var tupleCodec = hurricane.PairOf(hurricane.Uint64Of, hurricane.Uint64FixedOf)

// edgeTap keeps what producers leave on one shuffle edge, tapped from f:
// every chunk inserted into one of its leaf bags, and the edge's statistics
// in every done record that carries them — what the master merges when the
// edge seals.
type edgeTap struct {
	mu     sync.Mutex
	chunks map[string][]chunk.Chunk     // leaf bag -> inserted chunks
	stats  map[string]*sketch.EdgeStats // producer worker -> its edge stats
}

func tapEdge(f *transport.Faulty, edge string) *edgeTap {
	c := &edgeTap{chunks: map[string][]chunk.Chunk{}, stats: map[string]*sketch.EdgeStats{}}
	f.Add(transport.Rule{Match: transport.Match{Op: transport.OpInsert, Bag: edge}, Tap: func(_ string, req *transport.Request, _ *transport.Response) {
		leaf, _, _ := strings.Cut(req.Bag, "#")
		if leaf != edge && shuffle.EdgeOf(leaf) == edge {
			c.mu.Lock()
			c.chunks[leaf] = append(c.chunks[leaf], req.Data)
			c.mu.Unlock()
		}
	}})
	f.Add(transport.Rule{Match: transport.Match{Op: transport.OpInsert, Bag: "!done"}, Tap: func(_ string, req *transport.Request, _ *transport.Response) {
		var done struct {
			Task  string                       `json:"task"`
			Edges map[string]*sketch.EdgeStats `json:"edges"`
		}
		if json.Unmarshal(req.Data, &done) == nil && done.Edges[edge] != nil {
			c.mu.Lock()
			c.stats[done.Task] = done.Edges[edge]
			c.mu.Unlock()
		}
	}})
	return c
}

// edgeState is what one run left on the edge, in comparable form.
type edgeState struct {
	parts  map[string][]string // leaf -> sorted record encodings
	chunks map[string][]string // leaf -> its chunks' bytes, sorted
	counts map[string]uint64
	heavy  []sketch.HeavyKey
}

// TestWritersAgreeAcrossAPIs: a producer's choice of API and of key form
// must be invisible on the edge it feeds. The same Zipf stream goes through
// PartitionedWriter.Write and WriteBatch, keyed by the uint64 (directly,
// through NewPartitionedWriterUint64 or through Uint64Key) and by its 8
// little-endian bytes, an irregular mix of the two calls, and the scan
// stage of a compiled q plan; every run must leave the same records in the
// same physical partitions and the same statistics for the master — exact
// per-leaf counts and the heavy-key list, entry for entry, in the
// producer's done record and on the edge's record after the run. The hand-wired producers share one codec, so they must also cut
// the same chunks: each leaf's chunks, byte for byte, as a sorted multiset.
func TestWritersAgreeAcrossAPIs(t *testing.T) {
	const edge, parts, n = "agree.e1", 4, 30000
	gen := workload.RelationGen{Keys: 4096, S: 1.3, Seed: 29}
	// A short opening burst of one rare key: heavy in any prefix a writer
	// might stop to take stock of, nothing over a whole stretch of the
	// stream — so the heavy list also shows where a writer took stock.
	var stream []tuple
	for i := 0; i < 40; i++ {
		stream = append(stream, tuple{First: 4000, Second: uint64(i)})
	}
	for _, tu := range gen.Generate(n) {
		stream = append(stream, tuple{First: tu.Key, Second: tu.Payload})
	}
	key := func(v tuple) uint64 { return v.First }
	byteKey := func() func(tuple) []byte {
		var kb [8]byte
		return func(v tuple) []byte {
			binary.LittleEndian.PutUint64(kb[:], v.First)
			return kb[:]
		}
	}

	handWired := func(produce func(tc *hurricane.TaskCtx, vec []tuple) error) func(context.Context, *hurricane.Cluster) error {
		app := hurricane.NewApp("agree").SourceBag("in").Bag("out")
		app.AddBag(hurricane.BagSpec{Name: edge, Partitions: parts, Spread: true})
		app.AddTask(hurricane.TaskSpec{
			Name: "produce", Inputs: []string{"in"}, Outputs: []string{edge},
			Run: func(tc *hurricane.TaskCtx) error {
				return hurricane.ForEachBatch(tc, 0, tupleCodec, func(vec []tuple) error { return produce(tc, vec) })
			},
		})
		app.AddTask(hurricane.TaskSpec{
			Name: "consume", Inputs: []string{edge}, Outputs: []string{"out"},
			Run: func(tc *hurricane.TaskCtx) error {
				return hurricane.ForEach(tc, 0, tupleCodec, func(tuple) error { return nil })
			},
		})
		return func(ctx context.Context, c *hurricane.Cluster) error { return c.Run(ctx, app) }
	}
	runs := map[string]func(context.Context, *hurricane.Cluster) error{
		"Write": handWired(func(tc *hurricane.TaskCtx, vec []tuple) error {
			pw := hurricane.NewPartitionedWriter(tc, 0, tupleCodec, hurricane.Uint64Key(key))
			for _, v := range vec {
				if err := pw.Write(v); err != nil {
					return err
				}
			}
			return nil
		}),
		"WriteBatch": handWired(func(tc *hurricane.TaskCtx, vec []tuple) error {
			return hurricane.NewPartitionedWriterUint64(tc, 0, tupleCodec, key).WriteBatch(vec)
		}),
		"WriteBatch Uint64Key": handWired(func(tc *hurricane.TaskCtx, vec []tuple) error {
			return hurricane.NewPartitionedWriter(tc, 0, tupleCodec, hurricane.Uint64Key(key)).WriteBatch(vec)
		}),
		"Write bytes": handWired(func(tc *hurricane.TaskCtx, vec []tuple) error {
			pw := hurricane.NewPartitionedWriter(tc, 0, tupleCodec, byteKey())
			for _, v := range vec {
				if err := pw.Write(v); err != nil {
					return err
				}
			}
			return nil
		}),
		"WriteBatch bytes": handWired(func(tc *hurricane.TaskCtx, vec []tuple) error {
			return hurricane.NewPartitionedWriter(tc, 0, tupleCodec, byteKey()).WriteBatch(vec)
		}),
		"mixed": handWired(func(tc *hurricane.TaskCtx, vec []tuple) error {
			pw := hurricane.NewPartitionedWriterUint64(tc, 0, tupleCodec, key)
			for i := 0; len(vec) > 0; i++ {
				take := min(len(vec), 1+(i*977)%5000)
				if i%2 == 0 {
					if err := pw.WriteBatch(vec[:take]); err != nil {
						return err
					}
				} else {
					for _, v := range vec[:take] {
						if err := pw.Write(v); err != nil {
							return err
						}
					}
				}
				vec = vec[take:]
			}
			return nil
		}),
		"plan": func(ctx context.Context, c *hurricane.Cluster) error {
			p := q.New("agree") // its CountByKey is node 1: the edge is agree.e1
			q.CountByKey(q.Scan(p, "in", tupleCodec), key).Sink("out")
			compiled, err := p.Compile(q.Options{Parts: parts})
			if err != nil {
				return err
			}
			return compiled.Run(ctx, c)
		},
	}

	states := make(map[string]*edgeState)
	for name, run := range runs {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		inproc := transport.NewInProc()
		inproc.Register("s0", storage.NewNode("s0"))
		f := transport.NewFaulty(inproc)
		tap := tapEdge(f, edge)
		// One chunk holds the whole input, so the one producer worker sees
		// the stream in generation order.
		store, err := bag.NewStore(bag.Config{Nodes: []string{"s0"}, Client: f, ChunkSize: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		cluster := core.NewClusterOverStore(store, core.ClusterConfig{
			ComputeNodes: 1, SlotsPerNode: 2,
			Node:   core.NodeConfig{MonitorInterval: 4 * time.Millisecond},
			Master: core.MasterConfig{CloneInterval: 5 * time.Millisecond, Policies: []hurricane.Policy{}},
		})
		if err := hurricane.Load(ctx, store, "in", tupleCodec, stream); err != nil {
			t.Fatal(err)
		}
		if err := hurricane.Seal(ctx, store, "in"); err != nil {
			t.Fatal(err)
		}
		if err := run(ctx, cluster); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		noFallbackClaims(t, cluster)
		record := cluster.Master().EdgeMemory()[edge].Stats
		cluster.Shutdown()
		cancel()

		if len(tap.stats) != 1 {
			t.Fatalf("%s: %d done records carried the edge's statistics, want the one producer's", name, len(tap.stats))
		}
		st := &edgeState{parts: map[string][]string{}, chunks: map[string][]string{}}
		for _, es := range tap.stats {
			st.counts, st.heavy = es.Counts, es.Heavy
		}
		if record == nil || fmt.Sprint(record.Counts, record.Heavy) != fmt.Sprint(st.counts, st.heavy) {
			t.Fatalf("%s: the edge's record %+v is not its one producer's statistics", name, record)
		}
		for leaf, cs := range tap.chunks {
			for _, c := range cs {
				st.chunks[leaf] = append(st.chunks[leaf], string(c))
			}
			sort.Strings(st.chunks[leaf])
			vals, err := chunk.NewSliceIterator(tupleCodec, cs).Collect()
			if err != nil {
				t.Fatalf("%s: %s: %v", name, leaf, err)
			}
			for _, v := range vals {
				st.parts[leaf] = append(st.parts[leaf], string(tupleCodec.Encode(nil, v)))
			}
			sort.Strings(st.parts[leaf])
			if uint64(len(vals)) != st.counts[leaf] {
				t.Fatalf("%s: %s holds %d records, the writer reported %d", name, leaf, len(vals), st.counts[leaf])
			}
		}
		states[name] = st
	}

	want := states["Write"]
	if total := len(want.heavy); total == 0 || len(want.parts) != parts {
		t.Fatalf("reference run: %d heavy keys over %d partitions — the stream is not doing its job", total, len(want.parts))
	}
	for name, got := range states {
		if fmt.Sprint(got.counts) != fmt.Sprint(want.counts) {
			t.Errorf("%s: per-leaf counts %v, Write left %v", name, got.counts, want.counts)
		}
		if fmt.Sprint(got.heavy) != fmt.Sprint(want.heavy) {
			t.Errorf("%s: heavy keys %v, Write left %v", name, got.heavy, want.heavy)
		}
		for leaf, recs := range want.parts {
			if strings.Join(got.parts[leaf], "") != strings.Join(recs, "") {
				t.Errorf("%s: partition %s holds different records than under Write (%d vs %d)", name, leaf, len(got.parts[leaf]), len(recs))
			}
		}
		if name == "plan" {
			continue
		}
		for leaf, cs := range want.chunks {
			if !slices.Equal(got.chunks[leaf], cs) {
				t.Errorf("%s: partition %s holds %d chunks, not byte for byte the %d Write cut", name, leaf, len(got.chunks[leaf]), len(cs))
			}
		}
	}

	// The bytes a compiled plan writes are part of its contract too: a
	// one-worker join of the same stream against four build records per key
	// must leave, compiled Static (a repartition join), exactly the sink
	// chunks it left before compiled plans carried typed vectors, and in
	// the planner's form, the join fused into the probe scan, exactly the
	// chunks it left when that became the default.
	for _, golden := range []struct {
		static bool
		digest string
	}{
		{true, "7:fcae94b90950a80694b0727fabf8d2547200d340ae03d0fd97ce6092d288227d"},
		{false, "4:82717a4dd628eca0eba4c6b3ad3bd614922e041d7d7fefa95df5d1b098783777"},
	} {
		if got := compiledJoinSinkDigest(t, stream, golden.static); got != golden.digest {
			t.Errorf("compiled join (static=%v) sink chunks digest %s, golden %s", golden.static, got, golden.digest)
		}
	}
}

// compiledJoinSinkDigest runs build ⋈ probe as a compiled plan, static or
// not, on one worker slot with every mitigation off and
// digests the sink's chunks: the SHA-256 of their SHA-256s in sorted order
// (the four join workers of a shuffled join run one after another, in no
// fixed order). A bag hands its chunks out in no fixed order either, so the
// chunk size is one that keeps each source and each edge partition a single
// chunk — every worker sees its records in stream order — while the join's
// output, four times its input, is cut into several chunks per worker.
func compiledJoinSinkDigest(t *testing.T, probe []tuple, static bool) string {
	t.Helper()
	var build []tuple
	for k := uint64(0); k < 4096; k++ {
		for d := uint64(0); d < 4; d++ {
			build = append(build, tuple{First: k, Second: k*3 + d})
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	inproc := transport.NewInProc()
	inproc.Register("s0", storage.NewNode("s0"))
	f := transport.NewFaulty(inproc)
	var mu sync.Mutex
	var sink []chunk.Chunk // every chunk inserted into the sink
	f.Add(transport.Rule{Match: transport.Match{Op: transport.OpInsert, Bag: "joined#"}, Tap: func(_ string, req *transport.Request, _ *transport.Response) {
		if strings.HasPrefix(req.Bag, "joined#") {
			mu.Lock()
			sink = append(sink, req.Data)
			mu.Unlock()
		}
	}})
	store, err := bag.NewStore(bag.Config{Nodes: []string{"s0"}, Client: f, ChunkSize: 1 << 19})
	if err != nil {
		t.Fatal(err)
	}
	cluster := core.NewClusterOverStore(store, core.ClusterConfig{
		ComputeNodes: 1, SlotsPerNode: 1,
		Node:   core.NodeConfig{MonitorInterval: 4 * time.Millisecond},
		Master: core.MasterConfig{CloneInterval: 5 * time.Millisecond, Policies: []hurricane.Policy{}},
	})
	defer cluster.Shutdown()
	for name, recs := range map[string][]tuple{"R": build, "S": probe} {
		if err := hurricane.LoadBatch(ctx, store, name, tupleCodec, recs); err != nil {
			t.Fatal(err)
		}
		if err := hurricane.Seal(ctx, store, name); err != nil {
			t.Fatal(err)
		}
	}
	p := q.New("golden")
	key := func(v tuple) uint64 { return v.First }
	matches := hurricane.PairOf(hurricane.Uint64Of, hurricane.PairOf(hurricane.Uint64FixedOf, hurricane.Uint64FixedOf))
	q.Join(q.Scan(p, "R", tupleCodec), q.Scan(p, "S", tupleCodec), key, key, matches,
		func(b, s tuple, emit func(hurricane.Pair[uint64, tuple]) error) error {
			return emit(hurricane.Pair[uint64, tuple]{First: s.First, Second: tuple{First: b.Second, Second: s.Second}})
		}).Sink("joined")
	compiled, err := p.Compile(q.Options{Parts: 4, Static: static})
	if err != nil {
		t.Fatal(err)
	}
	if err := compiled.Run(ctx, cluster); err != nil {
		t.Fatal(err)
	}
	noFallbackClaims(t, cluster)
	sums := make([]string, len(sink))
	for i, c := range sink {
		sum := sha256.Sum256(c)
		sums[i] = string(sum[:])
	}
	sort.Strings(sums)
	return fmt.Sprintf("%d:%x", len(sums), sha256.Sum256([]byte(strings.Join(sums, ""))))
}

// noFallbackClaims asserts that every task of the cluster's jobs was
// dispatched by a wake: none was found by the compute nodes' fallback sweep.
func noFallbackClaims(t *testing.T, c *core.Cluster) {
	t.Helper()
	if n := c.Observer().Counter("hurricane_core_fallback_claims_total").Value(); n != 0 {
		t.Errorf("hurricane_core_fallback_claims_total = %d, want 0", n)
	}
}

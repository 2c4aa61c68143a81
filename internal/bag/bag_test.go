package bag

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/chunk"
	"repro/internal/storage"
	"repro/internal/transport"
)

func newCluster(t *testing.T, m int) (*Store, *transport.InProc, []*storage.Node) {
	t.Helper()
	tr := transport.NewInProc()
	names := make([]string, m)
	nodes := make([]*storage.Node, m)
	for i := 0; i < m; i++ {
		names[i] = fmt.Sprintf("s%d", i)
		nodes[i] = storage.NewNode(names[i])
		tr.Register(names[i], nodes[i])
	}
	st, err := NewStore(Config{
		Nodes:       names,
		Client:      tr,
		ChunkSize:   1 << 10,
		BatchFactor: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st, tr, nodes
}

func TestInsertSpreadsAcrossNodes(t *testing.T) {
	st, _, nodes := newCluster(t, 8)
	ctx := context.Background()
	b := st.Bag("spread")
	const n = 160
	for i := 0; i < n; i++ {
		if err := b.Insert(ctx, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Cyclic placement: every node holds exactly n/m chunks.
	for i, node := range nodes {
		resp := node.Handle(&transport.Request{Op: transport.OpSample, Bag: slotBag("spread", i)})
		if resp.TotalChunks != n/8 {
			t.Errorf("node %d holds %d chunks, want %d", i, resp.TotalChunks, n/8)
		}
	}
}

func TestRemoveExactlyOnceSingleConsumer(t *testing.T) {
	st, _, _ := newCluster(t, 4)
	ctx := context.Background()
	b := st.Bag("data")
	const n = 200
	for i := 0; i < n; i++ {
		if err := b.Insert(ctx, []byte{byte(i), byte(i >> 8)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Seal(ctx, "data"); err != nil {
		t.Fatal(err)
	}
	r := st.Bag("data")
	defer r.CloseConsumer()
	seen := map[[2]byte]bool{}
	for {
		c, err := r.Remove(ctx)
		if err == ErrEmpty {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		key := [2]byte{c[0], c[1]}
		if seen[key] {
			t.Fatalf("chunk %v delivered twice", key)
		}
		seen[key] = true
	}
	if len(seen) != n {
		t.Fatalf("got %d chunks, want %d", len(seen), n)
	}
}

// TestRemoveExactlyOnceManyClones: the core task-cloning property — any
// number of concurrent consumers (clones) partition the bag exactly.
func TestRemoveExactlyOnceManyClones(t *testing.T) {
	st, tr, _ := newCluster(t, 4)
	// Inject latency so the clones' prefetchers genuinely interleave
	// instead of the first one draining the bag instantly.
	tr.SetLatency(50 * time.Microsecond)
	ctx := context.Background()
	w := st.Bag("data")
	const n = 1000
	for i := 0; i < n; i++ {
		if err := w.Insert(ctx, []byte{byte(i), byte(i >> 8)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Seal(ctx, "data"); err != nil {
		t.Fatal(err)
	}

	const clones = 8
	var mu sync.Mutex
	counts := map[[2]byte]int{}
	perClone := make([]int, clones)
	var wg sync.WaitGroup
	for c := 0; c < clones; c++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			h := st.Bag("data")
			defer h.CloseConsumer()
			for {
				ch, err := h.Remove(ctx)
				if err == ErrEmpty {
					return
				}
				if err != nil {
					t.Errorf("clone %d: %v", idx, err)
					return
				}
				mu.Lock()
				counts[[2]byte{ch[0], ch[1]}]++
				perClone[idx]++
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if len(counts) != n {
		t.Fatalf("distinct chunks %d, want %d", len(counts), n)
	}
	for k, c := range counts {
		if c != 1 {
			t.Fatalf("chunk %v delivered %d times", k, c)
		}
	}
	// Late binding: with 8 clones racing, work should actually spread.
	busy := 0
	for _, c := range perClone {
		if c > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Errorf("only %d of %d clones processed chunks", busy, clones)
	}
}

func TestPollWorkQueueSemantics(t *testing.T) {
	st, _, _ := newCluster(t, 4)
	ctx := context.Background()
	q := st.Bag("queue")
	// Empty unsealed queue: ErrAgain.
	if _, err := q.Poll(ctx); err != ErrAgain {
		t.Fatalf("empty poll: %v", err)
	}
	if err := q.Insert(ctx, []byte("task1")); err != nil {
		t.Fatal(err)
	}
	c, err := q.Poll(ctx)
	if err != nil || string(c) != "task1" {
		t.Fatalf("poll: %s %v", c, err)
	}
	if _, err := q.Poll(ctx); err != ErrAgain {
		t.Fatalf("drained poll: %v", err)
	}
	if err := st.Seal(ctx, "queue"); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Poll(ctx); err != ErrEmpty {
		t.Fatalf("sealed poll: %v", err)
	}
}

func TestSampleAggregation(t *testing.T) {
	st, _, _ := newCluster(t, 4)
	ctx := context.Background()
	b := st.Bag("data")
	const n = 40
	for i := 0; i < n; i++ {
		if err := b.Insert(ctx, make([]byte, 10)); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := st.Sample(ctx, "data")
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalChunks != n || stats.TotalBytes != n*10 {
		t.Fatalf("sample: %+v", stats)
	}
	if stats.Sealed {
		t.Fatal("unsealed bag reported sealed")
	}
	if stats.RemainingChunks() != n || stats.RemainingBytes() != n*10 {
		t.Fatalf("remaining: %+v", stats)
	}
	st.Seal(ctx, "data")
	stats, _ = st.Sample(ctx, "data")
	if !stats.Sealed {
		t.Fatal("sealed bag reported unsealed")
	}
}

func TestRewindReuse(t *testing.T) {
	st, _, _ := newCluster(t, 4)
	ctx := context.Background()
	b := st.Bag("data")
	for i := 0; i < 20; i++ {
		if err := b.Insert(ctx, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	st.Seal(ctx, "data")
	r1 := st.Bag("data")
	n1 := 0
	for {
		if _, err := r1.Remove(ctx); err == ErrEmpty {
			break
		}
		n1++
	}
	r1.CloseConsumer()
	if n1 != 20 {
		t.Fatalf("first pass read %d", n1)
	}
	// Rewind and read the whole bag again (§4.3 "reusing the contents").
	if err := st.Rewind(ctx, "data"); err != nil {
		t.Fatal(err)
	}
	r2 := st.Bag("data")
	defer r2.CloseConsumer()
	n2 := 0
	for {
		if _, err := r2.Remove(ctx); err == ErrEmpty {
			break
		}
		n2++
	}
	if n2 != 20 {
		t.Fatalf("second pass read %d", n2)
	}
}

func TestScannerNonConsuming(t *testing.T) {
	st, _, _ := newCluster(t, 4)
	ctx := context.Background()
	b := st.Bag("data")
	for i := 0; i < 12; i++ {
		if err := b.Insert(ctx, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Two scanners see everything independently, before sealing.
	for s := 0; s < 2; s++ {
		sc := st.Scanner("data")
		seen := 0
		for {
			_, err := sc.Next(ctx)
			if err == ErrAgain {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			seen++
		}
		if seen != 12 {
			t.Fatalf("scanner %d saw %d chunks", s, seen)
		}
	}
	// The bag is still fully consumable afterwards.
	st.Seal(ctx, "data")
	r := st.Bag("data")
	defer r.CloseConsumer()
	n := 0
	for {
		if _, err := r.Remove(ctx); err == ErrEmpty {
			break
		}
		n++
	}
	if n != 12 {
		t.Fatalf("consumed %d after scans", n)
	}
	// A scanner over the sealed, fully scanned bag reports ErrEmpty.
	sc := st.Scanner("data")
	drained, err := sc.Drain(ctx, func(chunk.Chunk) error { return nil })
	if err != nil || !drained {
		t.Fatalf("drain: %v %v", drained, err)
	}
}

func TestScannerIncremental(t *testing.T) {
	st, _, _ := newCluster(t, 4)
	ctx := context.Background()
	b := st.Bag("data")
	sc := st.Scanner("data")
	for round := 0; round < 3; round++ {
		for i := 0; i < 5; i++ {
			if err := b.Insert(ctx, []byte{byte(round), byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		seen := 0
		if _, err := sc.Drain(ctx, func(chunk.Chunk) error { seen++; return nil }); err != nil {
			t.Fatal(err)
		}
		if seen != 5 {
			t.Fatalf("round %d: scanner saw %d new chunks, want 5", round, seen)
		}
	}
	sc.Reset()
	total := 0
	if _, err := sc.Drain(ctx, func(chunk.Chunk) error { total++; return nil }); err != nil {
		t.Fatal(err)
	}
	if total != 15 {
		t.Fatalf("after reset: %d chunks", total)
	}
}

func TestInserterPipelined(t *testing.T) {
	st, _, _ := newCluster(t, 4)
	ctx := context.Background()
	b := st.Bag("data")
	ins := b.Inserter(ctx)
	const n = 300
	for i := 0; i < n; i++ {
		if err := ins.Insert([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ins.Close(); err != nil {
		t.Fatal(err)
	}
	stats, err := st.Sample(ctx, "data")
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalChunks != n {
		t.Fatalf("inserted %d chunks, want %d", stats.TotalChunks, n)
	}
}

func TestRenameAdoptsData(t *testing.T) {
	st, _, _ := newCluster(t, 4)
	ctx := context.Background()
	b := st.Bag("partial")
	for i := 0; i < 10; i++ {
		if err := b.Insert(ctx, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Rename(ctx, "partial", "final"); err != nil {
		t.Fatal(err)
	}
	st.Seal(ctx, "final")
	r := st.Bag("final")
	defer r.CloseConsumer()
	n := 0
	for {
		if _, err := r.Remove(ctx); err == ErrEmpty {
			break
		}
		n++
	}
	if n != 10 {
		t.Fatalf("renamed bag has %d chunks", n)
	}
	// Old name is gone.
	stats, _ := st.Sample(ctx, "partial")
	if stats.TotalChunks != 0 {
		t.Fatalf("old name still has data: %+v", stats)
	}
}

func TestDiscardAndDelete(t *testing.T) {
	st, _, _ := newCluster(t, 4)
	ctx := context.Background()
	b := st.Bag("data")
	for i := 0; i < 10; i++ {
		b.Insert(ctx, []byte{byte(i)})
	}
	if err := st.Discard(ctx, "data"); err != nil {
		t.Fatal(err)
	}
	stats, _ := st.Sample(ctx, "data")
	if stats.TotalChunks != 0 {
		t.Fatalf("after discard: %+v", stats)
	}
	if err := st.Delete(ctx, "data"); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewStore(Config{}); err == nil {
		t.Fatal("empty config must fail")
	}
	if _, err := NewStore(Config{Nodes: []string{"a"}}); err == nil {
		t.Fatal("missing client must fail")
	}
	tr := transport.NewInProc()
	if _, err := NewStore(Config{Nodes: []string{"a"}, Client: tr, Replication: 3}); err == nil {
		t.Fatal("replication > nodes must fail")
	}
}

func TestAddNodeGrowsPlacement(t *testing.T) {
	st, tr, _ := newCluster(t, 2)
	ctx := context.Background()
	n3 := storage.NewNode("s2")
	tr.Register("s2", n3)
	st.AddNode("s2")
	if st.NumSlots() != 3 {
		t.Fatalf("slots = %d", st.NumSlots())
	}
	b := st.Bag("grown")
	for i := 0; i < 30; i++ {
		if err := b.Insert(ctx, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	resp := n3.Handle(&transport.Request{Op: transport.OpSample, Bag: slotBag("grown", 2)})
	if resp.TotalChunks == 0 {
		t.Fatal("new node received no chunks")
	}
}

// TestPermDeterministicQuick: every client derives the same permutation
// for a bag name, so placement needs no coordination.
func TestPermDeterministicQuick(t *testing.T) {
	st, _, _ := newCluster(t, 8)
	f := func(name string) bool {
		p1 := st.permFor(name)
		p2 := st.permFor(name)
		if len(p1) != 8 || len(p2) != 8 {
			return false
		}
		seen := map[int]bool{}
		for i := range p1 {
			if p1[i] != p2[i] {
				return false
			}
			seen[p1[i]] = true
		}
		return len(seen) == 8 // a true permutation
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBatchFactorBoundsConcurrency(t *testing.T) {
	// With latency injected, a consumer with batch factor b should issue
	// roughly b concurrent requests; total call count stays sane.
	st, tr, _ := newCluster(t, 4)
	ctx := context.Background()
	b := st.Bag("data")
	const n = 40
	for i := 0; i < n; i++ {
		b.Insert(ctx, []byte{byte(i)})
	}
	st.Seal(ctx, "data")
	tr.SetLatency(100 * time.Microsecond)
	r := st.Bag("data")
	defer r.CloseConsumer()
	got := 0
	for {
		if _, err := r.Remove(ctx); err == ErrEmpty {
			break
		}
		got++
	}
	if got != n {
		t.Fatalf("got %d chunks", got)
	}
}

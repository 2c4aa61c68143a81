package bag

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/chunk"
	"repro/internal/storage"
	"repro/internal/transport"
)

func newCluster(t testing.TB, m int) (*Store, *transport.InProc, []*storage.Node) {
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
	st, tr, nodes := newCluster(t, 4)
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

	// One node down: inserts to it fail in the background while those to
	// the others are held in flight. An insert is accepted before its
	// call fails, so the first error comes back from a later Insert, and
	// again from Close, which returns only once no insert is in flight.
	fl := countInFlight(tr, nodes, 5*time.Millisecond)
	tr.Crash("s0")
	down := st.Bag("down").Inserter(ctx)
	var insertErr error
	for i := 0; insertErr == nil; i++ {
		if i == 1000 {
			t.Fatal("no Insert reported the down node")
		}
		insertErr = down.Insert([]byte{byte(i)})
	}
	if !errors.Is(insertErr, transport.ErrNodeDown) {
		t.Fatalf("Insert = %v, want the node-down error", insertErr)
	}
	if err := down.Close(); err != insertErr {
		t.Fatalf("Close = %v, want the first error %v", err, insertErr)
	}
	if n := fl.now.Load(); n != 0 {
		t.Fatalf("%d inserts still in flight after Close", n)
	}
	for deadline := time.Now().Add(time.Second); inserterGoroutines() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d insert goroutines outlived Close", inserterGoroutines())
		}
	}
}

// inserterGoroutines counts the goroutines running an Inserter's RPC.
// One that has called wg.Done is listed until it returns, which is why
// callers poll it.
func inserterGoroutines() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "bag.(*Inserter).Insert.func")
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
// for a bag name and slot count, so placement needs no coordination, and
// an edge's sketch lives on the first slot of that permutation.
func TestPermDeterministicQuick(t *testing.T) {
	stores := make([]*Store, 9)
	for m := 1; m <= 8; m++ {
		stores[m], _, _ = newCluster(t, m)
	}
	f := func(name string, slots uint8) bool {
		m := int(slots%8) + 1
		st := stores[m]
		p1 := st.permFor(name)
		p2 := st.Bag(name).perm
		if len(p1) != m || len(p2) != m || st.sketchSlot(name) != p2[0] {
			return false
		}
		seen := map[int]bool{}
		for i := range p1 {
			if p1[i] != p2[i] {
				return false
			}
			seen[p1[i]] = true
		}
		return len(seen) == m // a true permutation
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestPlacementGolden pins the permutation as a function of (name, slot
// count). Every client and every storage deployment derives it
// independently, so a change here is a change to where existing data is
// looked for: make it deliberately, and update these rows with it.
func TestPlacementGolden(t *testing.T) {
	golden := []struct {
		name string
		m    int
		perm []int
	}{
		{"input", 1, []int{0}},
		{"input", 2, []int{1, 0}},
		{"input", 4, []int{0, 3, 1, 2}},
		{"input", 8, []int{7, 0, 3, 1, 2, 5, 4, 6}},
		{"groupby!ready", 1, []int{0}},
		{"groupby!ready", 2, []int{0, 1}},
		{"groupby!ready", 4, []int{2, 3, 0, 1}},
		{"groupby!ready", 8, []int{2, 6, 4, 3, 0, 5, 7, 1}},
		{"pairs.p3", 1, []int{0}},
		{"pairs.p3", 2, []int{0, 1}},
		{"pairs.p3", 4, []int{3, 0, 2, 1}},
		{"pairs.p3", 8, []int{3, 4, 1, 7, 6, 0, 2, 5}},
	}
	for _, g := range golden {
		st, _, _ := newCluster(t, g.m)
		if got := st.permFor(g.name); !slices.Equal(got, g.perm) {
			t.Errorf("permFor(%q) over %d slots = %v, want %v", g.name, g.m, got, g.perm)
		}
	}
}

// TestBagHandleAllocs: a handle costs its permutation, its per-slot keys
// and itself — no random source is seeded per handle or per exchange.
func TestBagHandleAllocs(t *testing.T) {
	st, _, _ := newCluster(t, 4)
	if n := testing.AllocsPerRun(100, func() { st.permFor("pairs.p3") }); n != 1 {
		t.Errorf("permFor allocates %v times, want 1 (the permutation)", n)
	}
	// perm, slot-key slice, four slot keys, the handle.
	if n := testing.AllocsPerRun(100, func() { st.Bag("pairs.p3") }); n > 7 {
		t.Errorf("Store.Bag allocates %v times over 4 slots, want at most 7", n)
	}
}

func BenchmarkBagHandle(b *testing.B) {
	st, _, _ := newCluster(b, 4)
	b.ReportAllocs()
	for b.Loop() {
		st.Bag("pairs.p3")
	}
}

// inFlight counts the calls storage handlers are serving, now and at most.
type inFlight struct{ now, peak atomic.Int64 }

// countInFlight re-registers every node of newCluster behind a handler
// that holds each call for hold and counts it in flight meanwhile, across
// all nodes.
func countInFlight(tr *transport.InProc, nodes []*storage.Node, hold time.Duration) *inFlight {
	fl := &inFlight{}
	for i, node := range nodes {
		tr.Register(fmt.Sprintf("s%d", i), transport.HandlerFunc(func(req *transport.Request) *transport.Response {
			n := fl.now.Add(1)
			defer fl.now.Add(-1)
			for p := fl.peak.Load(); n > p && !fl.peak.CompareAndSwap(p, n); p = fl.peak.Load() {
			}
			time.Sleep(hold)
			return node.Handle(req)
		}))
	}
	return fl
}

// TestBatchFactorBoundsConcurrency: under latency, an Inserter and a
// consumer each keep more than one request outstanding and never more
// than the batch factor — here 4, on 8 nodes, so the bound is b, not m.
func TestBatchFactorBoundsConcurrency(t *testing.T) {
	st, tr, nodes := newCluster(t, 8)
	ctx := context.Background()
	tr.SetLatency(100 * time.Microsecond)
	fl := countInFlight(tr, nodes, time.Millisecond)
	bf := int64(st.BatchFactor())

	const n = 40
	ins := st.Bag("data").Inserter(ctx)
	for i := 0; i < n; i++ {
		if err := ins.Insert([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ins.Close(); err != nil {
		t.Fatal(err)
	}
	if got := fl.peak.Load(); got <= 1 || got > bf {
		t.Errorf("Inserter: %d inserts in flight at most, want 1 < n <= %d", got, bf)
	}

	if err := st.Seal(ctx, "data"); err != nil {
		t.Fatal(err)
	}
	fl.peak.Store(0)
	r := st.Bag("data")
	defer r.CloseConsumer()
	got := 0
	for {
		_, err := r.Remove(ctx)
		if err == ErrEmpty {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got++
	}
	if got != n {
		t.Fatalf("got %d chunks", got)
	}
	if got := fl.peak.Load(); got <= 1 || got > bf {
		t.Errorf("consumer: %d removes in flight at most, want 1 < n <= %d", got, bf)
	}
}

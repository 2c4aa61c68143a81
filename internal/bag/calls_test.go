package bag

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/chunk"
	"repro/internal/storage"
	"repro/internal/transport"
)

// countedStore is a store over m in-process nodes, at r = 1 and one
// fetcher per consumer, whose calls are counted by op.
func countedStore(t *testing.T, m int) (*Store, map[transport.Op]*atomic.Int64) {
	t.Helper()
	tr := transport.NewInProc()
	names := make([]string, m)
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i)
		tr.Register(names[i], storage.NewNode(names[i]))
	}
	f := transport.NewFaulty(tr)
	calls := map[transport.Op]*atomic.Int64{}
	for _, op := range []transport.Op{transport.OpReadAt, transport.OpRemove} {
		n := &atomic.Int64{}
		calls[op] = n
		f.Add(transport.Rule{Match: transport.Match{Op: op}, Tap: func(_ string, _ *transport.Request, resp *transport.Response) {
			if resp == nil { // on arrival: count the call once
				n.Add(1)
			}
		}})
	}
	st, err := NewStore(Config{Nodes: names, Client: f, BatchFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	return st, calls
}

// insertAt inserts k one-byte chunks into slot of name.
func insertAt(t *testing.T, st *Store, name string, slot, k int) {
	t.Helper()
	h := st.Bag(name)
	for h.perm[h.pos%len(h.perm)] != slot {
		h.pos++
	}
	for i := 0; i < k; i++ {
		if err := h.Insert(context.Background(), chunk.Chunk{byte(i)}); err != nil {
			t.Fatal(err)
		}
		h.pos += len(h.perm) - 1 // back onto slot
	}
}

// TestDrainCallsPerChunk: a drain asks no slot past the end its last answer
// told of. One that finds k new chunks on one of m slots makes at most
// k + m − 1 readAt calls, wherever the chunks sit; one that finds nothing
// makes m; and a sealed slot read to its end counts as sealed without being
// asked again.
func TestDrainCallsPerChunk(t *testing.T) {
	ctx := context.Background()
	const m = 3
	for slot := 0; slot < m; slot++ {
		for _, k := range []int{1, 4} {
			for _, sealFirst := range []bool{false, true} {
				t.Run(fmt.Sprintf("slot%d/k%d/sealed=%v", slot, k, sealFirst), func(t *testing.T) {
					st, calls := countedStore(t, m)
					reads := calls[transport.OpReadAt]
					sc := st.Scanner("b")
					drain := func() (n int, sealed bool, asked int64) {
						before := reads.Load()
						sealed, err := sc.Drain(ctx, func(chunk.Chunk) error { n++; return nil })
						if err != nil {
							t.Fatal(err)
						}
						return n, sealed, reads.Load() - before
					}
					if !sealFirst {
						if n, sealed, asked := drain(); n != 0 || sealed || asked != m {
							t.Fatalf("empty bag: %d chunks, sealed %v, %d calls; want 0, false, %d", n, sealed, asked, m)
						}
					}
					insertAt(t, st, "b", slot, k)
					if sealFirst {
						if err := st.Seal(ctx, "b"); err != nil {
							t.Fatal(err)
						}
					}
					n, sealed, asked := drain()
					if n != k || sealed != sealFirst || asked > int64(k+m-1) {
						t.Fatalf("%d chunks on slot %d: drained %d, sealed %v, %d calls; want %d, %v, at most %d",
							k, slot, n, sealed, asked, k, sealFirst, k+m-1)
					}
					if !sealFirst {
						if err := st.Seal(ctx, "b"); err != nil {
							t.Fatal(err)
						}
					}
					if n, sealed, asked := drain(); n != 0 || !sealed || asked > m {
						t.Fatalf("sealed and scanned: %d chunks, sealed %v, %d calls; want 0, true, at most %d", n, sealed, asked, m)
					}
				})
			}
		}
	}
}

// TestRemoveRetiresDrainedSlot: at r = 1 the remove that takes a sealed
// slot's last chunk retires the slot, so one fetcher reading k chunks off
// a sealed bag makes k removes plus one for each slot that held none.
func TestRemoveRetiresDrainedSlot(t *testing.T) {
	ctx := context.Background()
	const m = 4
	st, calls := countedStore(t, m)
	insertAt(t, st, "b", 1, 3)
	insertAt(t, st, "b", 2, 2)
	if err := st.Seal(ctx, "b"); err != nil {
		t.Fatal(err)
	}
	b := st.Bag("b")
	defer b.CloseConsumer()
	n := 0
	for {
		_, err := b.Remove(ctx)
		if err == ErrEmpty {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if got := calls[transport.OpRemove].Load(); n != 5 || got != 5+2 {
		t.Fatalf("consumed %d chunks with %d removes; want 5 with %d", n, got, 5+2)
	}
}

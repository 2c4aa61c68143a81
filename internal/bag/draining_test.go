package bag

import (
	"context"
	"errors"
	"testing"

	"repro/internal/transport"
)

// TestDrainingNodeRejectsInserts: a storage node being removed (§3.4)
// rejects inserts with a distinguishable error while removes keep working,
// letting its bags drain.
func TestDrainingNodeRejectsInserts(t *testing.T) {
	st, _, nodes := newCluster(t, 4)
	ctx := context.Background()
	b := st.Bag("data")
	for i := 0; i < 40; i++ {
		if err := b.Insert(ctx, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Drain node 2. Inserts that land on its slot now fail loudly.
	nodes[2].SetDraining(true)
	var sawDraining bool
	for i := 0; i < 8; i++ {
		if err := b.Insert(ctx, []byte{0xFF}); err != nil {
			if !errors.Is(err, transport.ErrDraining) {
				t.Fatalf("unexpected insert error: %v", err)
			}
			sawDraining = true
		}
	}
	if !sawDraining {
		t.Fatal("no insert hit the draining node's slot")
	}
	// Removes still work everywhere: the bag drains completely.
	st.Seal(ctx, "data")
	r := st.Bag("data")
	defer r.CloseConsumer()
	n := 0
	for {
		if _, err := r.Remove(ctx); err == ErrEmpty {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n < 40 {
		t.Fatalf("drained only %d of at least 40 chunks", n)
	}
}

// TestMarkUpRestoresPrimary: after MarkDown diverts a slot's requests to a
// backup, MarkUp restores the original routing.
func TestMarkUpRestoresPrimary(t *testing.T) {
	st, _ := newReplicatedCluster(t, 4, 2)
	ctx := context.Background()
	served := func() (string, error) {
		_, node, err := st.callSlotServed(ctx, 0, &transport.Request{Op: transport.OpPing})
		return node, err
	}
	if n, err := served(); err != nil || n != "s0" {
		t.Fatalf("slot 0 served by %q, %v; want its primary s0", n, err)
	}
	st.MarkDown("s0")
	if n, err := served(); err != nil || n != "s1" {
		t.Fatalf("failover: slot 0 served by %q, %v; want s1", n, err)
	}
	st.MarkUp("s0")
	if n, err := served(); err != nil || n != "s0" {
		t.Fatalf("primary not restored: slot 0 served by %q, %v", n, err)
	}
	// All replicas down: error.
	st.MarkDown("s0")
	st.MarkDown("s1")
	if n, err := served(); err == nil {
		t.Fatalf("all replicas down, yet slot 0 served by %q", n)
	}
}

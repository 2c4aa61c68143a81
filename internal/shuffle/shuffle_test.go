package shuffle

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
)

func key(i uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], i)
	return b[:]
}

func TestBaseMapRouting(t *testing.T) {
	pm := BaseMap("shuf", 4)
	leaves := pm.Leaves()
	if len(leaves) != 4 {
		t.Fatalf("base map has %d leaves, want 4", len(leaves))
	}
	inLeaves := make(map[string]bool, len(leaves))
	for _, l := range leaves {
		inLeaves[l] = true
	}
	for i := uint64(0); i < 1000; i++ {
		leaf := pm.Route(key(i), 0)
		if !inLeaves[leaf] {
			t.Fatalf("key %d routed to %q, not a leaf", i, leaf)
		}
		if leaf != pm.Route(key(i), 7) {
			t.Fatalf("non-isolated key %d routing depends on rr", i)
		}
	}
}

// TestSeedRoutingDisjointAndComplete: under a seed that isolates two keys,
// one of them spread, every record routes to exactly one leaf of the map,
// a key not isolated stays in its base partition, an isolated key's records
// go to its own bags only, and every leaf — base partition or isolation
// bag — receives records.
func TestSeedRoutingDisjointAndComplete(t *testing.T) {
	base := BaseMap("shuf", 4)
	next := base.Clone()
	next.Isolated = []Isolation{{Hash: KeyHash(key(7)), Fan: 3}, {Hash: KeyHash(key(11)), Fan: 1}}
	next.Version++

	// 4 base partitions + 3 bags of the spread key + 1 of the other.
	leaves := next.Leaves()
	if len(leaves) != 4+3+1 {
		t.Fatalf("got %d leaves %v, want 8", len(leaves), leaves)
	}
	inLeaves := make(map[string]bool)
	for _, l := range leaves {
		inLeaves[l] = true
	}
	seen := make(map[string]bool)
	for i := uint64(0); i < 5000; i++ {
		k := i % 1000
		before := base.Route(key(k), int(i))
		after := next.Route(key(k), int(i))
		if !inLeaves[after] {
			t.Fatalf("key %d routed to non-leaf %q", k, after)
		}
		seen[after] = true
		switch k {
		case 7:
			if !strings.HasPrefix(after, "shuf.h0.s") {
				t.Fatalf("spread isolated key routed to %q", after)
			}
		case 11:
			if after != "shuf.h1" {
				t.Fatalf("isolated key routed to %q", after)
			}
		default:
			if after != before {
				t.Fatalf("key %d moved %q -> %q", k, before, after)
			}
		}
	}
	if len(seen) != len(leaves) {
		t.Fatalf("records reached %d of %d leaves: %v", len(seen), len(leaves), seen)
	}
}

func TestIsolationRouting(t *testing.T) {
	pm := BaseMap("shuf", 4)
	hot := key(42)
	pm.Isolated = []Isolation{{Hash: KeyHash(hot), Fan: 1}}
	if got := pm.Route(hot, 0); got != "shuf.h0" {
		t.Fatalf("isolated key routed to %q", got)
	}
	// Spread isolation fans the key's records by the rr counter.
	pm.Isolated[0].Fan = 3
	seen := make(map[string]bool)
	for rr := 0; rr < 9; rr++ {
		seen[pm.Route(hot, rr)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("spread isolation hit %d of 3 bags: %v", len(seen), seen)
	}
	for b := range seen {
		if !strings.HasPrefix(b, "shuf.h0.s") {
			t.Fatalf("spread bag %q has wrong prefix", b)
		}
	}
	// Other keys are unaffected.
	for i := uint64(0); i < 100; i++ {
		if i == 42 {
			continue
		}
		if got := pm.Route(key(i), 0); strings.HasPrefix(got, "shuf.h") {
			t.Fatalf("non-isolated key %d routed to isolation bag %q", i, got)
		}
	}
}

func TestPartitionMapEncodeDecode(t *testing.T) {
	pm := BaseMap("shuf", 8)
	pm.Splits = map[int]int{1: 2, 5: 4} // routes nothing, but still decodes
	pm.Isolated = []Isolation{{Hash: 123, Fan: 2}, {Hash: 456, Fan: 1}}
	pm.Version = 4
	got, err := DecodePartitionMap(pm.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 4 || got.Base != 8 || got.Bag != "shuf" {
		t.Fatalf("round trip lost header: %+v", got)
	}
	if len(got.Splits) != 2 || got.Splits[1] != 2 || got.Splits[5] != 4 {
		t.Fatalf("round trip lost splits: %v", got.Splits)
	}
	if len(got.Leaves()) != len(pm.Leaves()) {
		t.Fatalf("round trip changed leaves: %v vs %v", got.Leaves(), pm.Leaves())
	}
	for i := uint64(0); i < 2000; i++ {
		if got.Route(key(i), 3) != pm.Route(key(i), 3) {
			t.Fatalf("round trip changed routing of key %d", i)
		}
	}
	if _, err := DecodePartitionMap([]byte("{")); err == nil {
		t.Fatal("truncated map must error")
	}
	if _, err := DecodePartitionMap([]byte(`{"base":0}`)); err == nil {
		t.Fatal("zero-base map must error")
	}
}

func TestLeavesDeterministic(t *testing.T) {
	pm := BaseMap("shuf", 6)
	pm.Splits = map[int]int{0: 2, 4: 2} // names no leaf
	pm.Isolated = []Isolation{{Hash: 9, Fan: 2}, {Hash: 10, Fan: 1}}
	want := fmt.Sprint(pm.Leaves())
	if want != "[shuf.p0 shuf.p1 shuf.p2 shuf.p3 shuf.p4 shuf.p5 shuf.h0.s0 shuf.h0.s1 shuf.h1]" {
		t.Fatalf("leaves %s, want the base partitions, then the isolation bags", want)
	}
	for i := 0; i < 10; i++ {
		if got := fmt.Sprint(pm.Leaves()); got != want {
			t.Fatalf("leaf order unstable: %s vs %s", got, want)
		}
	}
}

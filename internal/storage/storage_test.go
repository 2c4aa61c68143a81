package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/sketch"
	"repro/internal/transport"
)

func insert(t *testing.T, n *Node, bagName string, data []byte) {
	t.Helper()
	resp := n.Handle(&transport.Request{Op: transport.OpInsert, Bag: bagName, Data: data})
	if !resp.OK() {
		t.Fatalf("insert: %+v", resp)
	}
}

func TestNodeInsertRemoveFIFO(t *testing.T) {
	n := NewNode("s0")
	for i := 0; i < 10; i++ {
		insert(t, n, "b", []byte{byte(i)})
	}
	n.Handle(&transport.Request{Op: transport.OpSeal, Bag: "b"})
	for i := 0; i < 10; i++ {
		resp := n.Handle(&transport.Request{Op: transport.OpRemove, Bag: "b"})
		if !resp.OK() || resp.Data[0] != byte(i) {
			t.Fatalf("remove %d: %+v", i, resp)
		}
		if resp.ReadChunks != int64(i+1) {
			t.Fatalf("remove %d: ReadChunks = %d", i, resp.ReadChunks)
		}
	}
	resp := n.Handle(&transport.Request{Op: transport.OpRemove, Bag: "b"})
	if resp.Status != transport.StatusEmpty {
		t.Fatalf("after drain: %+v", resp)
	}
}

func TestNodeRemoveUnsealedEmpty(t *testing.T) {
	n := NewNode("s0")
	resp := n.Handle(&transport.Request{Op: transport.OpRemove, Bag: "new"})
	if resp.Status != transport.StatusAgain {
		t.Fatalf("unsealed empty: %+v", resp)
	}
}

func TestNodeSealRejectsInsert(t *testing.T) {
	n := NewNode("s0")
	n.Handle(&transport.Request{Op: transport.OpSeal, Bag: "b"})
	resp := n.Handle(&transport.Request{Op: transport.OpInsert, Bag: "b", Data: []byte("x")})
	if resp.Status != transport.StatusErr {
		t.Fatalf("insert into sealed bag: %+v", resp)
	}
}

func TestNodeSample(t *testing.T) {
	n := NewNode("s0")
	insert(t, n, "b", []byte("abc"))
	insert(t, n, "b", []byte("de"))
	n.Handle(&transport.Request{Op: transport.OpRemove, Bag: "b"})
	resp := n.Handle(&transport.Request{Op: transport.OpSample, Bag: "b"})
	if resp.TotalChunks != 2 || resp.ReadChunks != 1 || resp.TotalBytes != 5 || resp.ReadBytes != 3 {
		t.Fatalf("sample: %+v", resp)
	}
	// Sampling a nonexistent bag reports zeroes without creating it.
	resp = n.Handle(&transport.Request{Op: transport.OpSample, Bag: "ghost"})
	if !resp.OK() || resp.TotalChunks != 0 {
		t.Fatalf("ghost sample: %+v", resp)
	}
	if len(n.BagNames()) != 1 {
		t.Fatalf("ghost bag was created: %v", n.BagNames())
	}
}

func TestNodeRewindAndReplay(t *testing.T) {
	n := NewNode("s0")
	for i := 0; i < 5; i++ {
		insert(t, n, "b", []byte{byte(i)})
	}
	for i := 0; i < 5; i++ {
		n.Handle(&transport.Request{Op: transport.OpRemove, Bag: "b"})
	}
	n.Handle(&transport.Request{Op: transport.OpRewind, Bag: "b", Arg: 0})
	resp := n.Handle(&transport.Request{Op: transport.OpRemove, Bag: "b"})
	if !resp.OK() || resp.Data[0] != 0 {
		t.Fatalf("replay after rewind: %+v", resp)
	}
	// Rewind to a mid position.
	n.Handle(&transport.Request{Op: transport.OpRewind, Bag: "b", Arg: 3})
	resp = n.Handle(&transport.Request{Op: transport.OpRemove, Bag: "b"})
	if !resp.OK() || resp.Data[0] != 3 {
		t.Fatalf("rewind(3): %+v", resp)
	}
	// Out-of-range rewind errors.
	resp = n.Handle(&transport.Request{Op: transport.OpRewind, Bag: "b", Arg: 99})
	if resp.Status != transport.StatusErr {
		t.Fatalf("rewind(99): %+v", resp)
	}
}

func TestNodeAdvanceMonotonic(t *testing.T) {
	n := NewNode("s0")
	for i := 0; i < 5; i++ {
		insert(t, n, "b", []byte{byte(i)})
	}
	n.Handle(&transport.Request{Op: transport.OpAdvance, Bag: "b", Arg: 3})
	// Advancing backward is a no-op.
	n.Handle(&transport.Request{Op: transport.OpAdvance, Bag: "b", Arg: 1})
	resp := n.Handle(&transport.Request{Op: transport.OpRemove, Bag: "b"})
	if !resp.OK() || resp.Data[0] != 3 {
		t.Fatalf("after advance: %+v", resp)
	}
	// Advancing past the end clamps.
	n.Handle(&transport.Request{Op: transport.OpAdvance, Bag: "b", Arg: 100})
	resp = n.Handle(&transport.Request{Op: transport.OpRemove, Bag: "b"})
	if resp.Status != transport.StatusAgain {
		t.Fatalf("after clamped advance: %+v", resp)
	}
}

func TestNodeDiscard(t *testing.T) {
	n := NewNode("s0")
	insert(t, n, "b", []byte("x"))
	n.Handle(&transport.Request{Op: transport.OpSeal, Bag: "b"})
	n.Handle(&transport.Request{Op: transport.OpDiscard, Bag: "b"})
	resp := n.Handle(&transport.Request{Op: transport.OpSample, Bag: "b"})
	if resp.TotalChunks != 0 || resp.Sealed {
		t.Fatalf("after discard: %+v", resp)
	}
	// Discarded bags accept inserts again (restart path).
	insert(t, n, "b", []byte("y"))
}

func TestNodeDelete(t *testing.T) {
	n := NewNode("s0")
	insert(t, n, "b", []byte("x"))
	n.Handle(&transport.Request{Op: transport.OpDelete, Bag: "b"})
	if len(n.BagNames()) != 0 {
		t.Fatalf("bag not deleted: %v", n.BagNames())
	}
	// Deleting a nonexistent bag succeeds (idempotent GC).
	resp := n.Handle(&transport.Request{Op: transport.OpDelete, Bag: "ghost"})
	if !resp.OK() {
		t.Fatalf("delete ghost: %+v", resp)
	}
}

func TestNodeRename(t *testing.T) {
	n := NewNode("s0")
	insert(t, n, "src", []byte("x"))
	resp := n.Handle(&transport.Request{Op: transport.OpRename, Bag: "src", Dst: "dst"})
	if !resp.OK() {
		t.Fatalf("rename: %+v", resp)
	}
	got := n.Handle(&transport.Request{Op: transport.OpRemove, Bag: "dst"})
	if !got.OK() || string(got.Data) != "x" {
		t.Fatalf("read renamed: %+v", got)
	}
	// Renaming a missing source succeeds (the slot simply holds nothing).
	resp = n.Handle(&transport.Request{Op: transport.OpRename, Bag: "missing", Dst: "other"})
	if !resp.OK() {
		t.Fatalf("rename missing: %+v", resp)
	}
	// Renaming onto an existing bag fails.
	insert(t, n, "a", []byte("1"))
	insert(t, n, "b", []byte("2"))
	resp = n.Handle(&transport.Request{Op: transport.OpRename, Bag: "a", Dst: "b"})
	if resp.Status != transport.StatusErr {
		t.Fatalf("rename onto existing: %+v", resp)
	}
}

func TestNodeReadAt(t *testing.T) {
	n := NewNode("s0")
	for i := 0; i < 3; i++ {
		insert(t, n, "b", []byte{byte(i)})
	}
	// ReadAt does not consume.
	for pass := 0; pass < 2; pass++ {
		for i := int64(0); i < 3; i++ {
			resp := n.Handle(&transport.Request{Op: transport.OpReadAt, Bag: "b", Arg: i})
			if !resp.OK() || resp.Data[0] != byte(i) {
				t.Fatalf("readAt %d: %+v", i, resp)
			}
		}
	}
	resp := n.Handle(&transport.Request{Op: transport.OpReadAt, Bag: "b", Arg: 3})
	if resp.Status != transport.StatusAgain {
		t.Fatalf("readAt past end (unsealed): %+v", resp)
	}
	n.Handle(&transport.Request{Op: transport.OpSeal, Bag: "b"})
	resp = n.Handle(&transport.Request{Op: transport.OpReadAt, Bag: "b", Arg: 3})
	if resp.Status != transport.StatusEmpty {
		t.Fatalf("readAt past end (sealed): %+v", resp)
	}
}

func TestNodeDraining(t *testing.T) {
	n := NewNode("s0")
	insert(t, n, "b", []byte("x"))
	n.SetDraining(true)
	resp := n.Handle(&transport.Request{Op: transport.OpInsert, Bag: "b", Data: []byte("y")})
	if resp.Status != transport.StatusRemoved {
		t.Fatalf("insert while draining: %+v", resp)
	}
	// Removes still served while draining (§3.4).
	resp = n.Handle(&transport.Request{Op: transport.OpRemove, Bag: "b"})
	if !resp.OK() || string(resp.Data) != "x" {
		t.Fatalf("remove while draining: %+v", resp)
	}
	n.SetDraining(false)
	insert(t, n, "b", []byte("z"))
}

func TestDiskBackendPersistence(t *testing.T) {
	dir := t.TempDir()
	n := NewNode("s0", WithDir(dir))
	var want [][]byte
	for i := 0; i < 20; i++ {
		data := bytes.Repeat([]byte{byte(i)}, i+1)
		want = append(want, data)
		insert(t, n, "b", data)
	}
	// Consume a few, then "restart" the node by reopening the directory.
	for i := 0; i < 5; i++ {
		n.Handle(&transport.Request{Op: transport.OpRemove, Bag: "b"})
	}
	n2 := NewNode("s0", WithDir(dir))
	// The restarted node rebuilds the chunk index from the file; the read
	// pointer resets (the master rewinds/restarts affected tasks).
	for i := 0; i < 20; i++ {
		resp := n2.Handle(&transport.Request{Op: transport.OpRemove, Bag: "b"})
		if !resp.OK() || !bytes.Equal(resp.Data, want[i]) {
			t.Fatalf("after restart, chunk %d: %+v", i, resp)
		}
	}
}

func TestDiskBackendOps(t *testing.T) {
	dir := t.TempDir()
	n := NewNode("s0", WithDir(dir))
	for i := 0; i < 10; i++ {
		insert(t, n, "b", []byte{byte(i)})
	}
	n.Handle(&transport.Request{Op: transport.OpRewind, Bag: "b", Arg: 7})
	resp := n.Handle(&transport.Request{Op: transport.OpRemove, Bag: "b"})
	if !resp.OK() || resp.Data[0] != 7 {
		t.Fatalf("disk rewind: %+v", resp)
	}
	resp = n.Handle(&transport.Request{Op: transport.OpReadAt, Bag: "b", Arg: 2})
	if !resp.OK() || resp.Data[0] != 2 {
		t.Fatalf("disk readAt: %+v", resp)
	}
	resp = n.Handle(&transport.Request{Op: transport.OpSample, Bag: "b"})
	if resp.TotalChunks != 10 || resp.ReadChunks != 8 {
		t.Fatalf("disk sample: %+v", resp)
	}
	n.Handle(&transport.Request{Op: transport.OpDiscard, Bag: "b"})
	resp = n.Handle(&transport.Request{Op: transport.OpSample, Bag: "b"})
	if resp.TotalBytes != 0 {
		t.Fatalf("disk discard: %+v", resp)
	}
	n.Handle(&transport.Request{Op: transport.OpDelete, Bag: "b"})
}

// TestExactlyOnceProperty: however inserts and removes interleave, each
// chunk is returned exactly once per rewind cycle.
func TestExactlyOnceProperty(t *testing.T) {
	f := func(numChunks uint8) bool {
		n := NewNode("s0")
		total := int(numChunks%64) + 1
		for i := 0; i < total; i++ {
			resp := n.Handle(&transport.Request{
				Op: transport.OpInsert, Bag: "b",
				Data: []byte(fmt.Sprintf("c%d", i)),
			})
			if !resp.OK() {
				return false
			}
		}
		n.Handle(&transport.Request{Op: transport.OpSeal, Bag: "b"})
		seen := map[string]bool{}
		for {
			resp := n.Handle(&transport.Request{Op: transport.OpRemove, Bag: "b"})
			if resp.Status == transport.StatusEmpty {
				break
			}
			if !resp.OK() || seen[string(resp.Data)] {
				return false
			}
			seen[string(resp.Data)] = true
		}
		return len(seen) == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownOp(t *testing.T) {
	n := NewNode("s0")
	resp := n.Handle(&transport.Request{Op: transport.Op(99)})
	if resp.Status != transport.StatusErr {
		t.Fatalf("unknown op: %+v", resp)
	}
}

// TestNodeSketchPushFetch: OpSketch with a payload stores a producer's
// cumulative edge stats; without a payload it returns the merge across
// producers. Cumulative re-pushes replace, so nothing double-counts.
func TestNodeSketchPushFetch(t *testing.T) {
	n := NewNode("s0")

	push := func(writer string, counts map[string]uint64) {
		t.Helper()
		st := sketch.NewEdgeStats()
		for k, v := range counts {
			st.Counts[k] = v
			st.CM.Add([]byte(k), v)
		}
		data, err := st.Encode()
		if err != nil {
			t.Fatal(err)
		}
		resp := n.Handle(&transport.Request{
			Op: transport.OpSketch, Bag: "shuf", Dst: writer, Data: data,
		})
		if !resp.OK() {
			t.Fatalf("push: %+v", resp)
		}
	}
	fetch := func() *sketch.EdgeStats {
		t.Helper()
		resp := n.Handle(&transport.Request{Op: transport.OpSketch, Bag: "shuf"})
		if !resp.OK() {
			t.Fatalf("fetch: %+v", resp)
		}
		st, err := sketch.DecodeEdgeStats(resp.Data)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	// Empty fetch: zero stats, not an error.
	if st := fetch(); st.Total() != 0 {
		t.Fatalf("empty edge reports total %d", st.Total())
	}

	push("w0", map[string]uint64{"shuf.p0": 100, "shuf.p1": 10})
	push("w1", map[string]uint64{"shuf.p0": 50})
	st := fetch()
	if st.Counts["shuf.p0"] != 150 || st.Counts["shuf.p1"] != 10 {
		t.Fatalf("merged counts %v", st.Counts)
	}

	// w0 re-pushes larger cumulative stats: replaces, not adds.
	push("w0", map[string]uint64{"shuf.p0": 120, "shuf.p1": 30})
	st = fetch()
	if st.Counts["shuf.p0"] != 170 || st.Counts["shuf.p1"] != 30 {
		t.Fatalf("counts after re-push %v", st.Counts)
	}
	if est := st.CM.Estimate([]byte("shuf.p0")); est < 170 {
		t.Fatalf("merged count-min undercounts: %d", est)
	}

	// A push is stored as received, unvalidated: a corrupt blob is accepted
	// and skipped when a fetch merges, and the other writers still merge.
	resp := n.Handle(&transport.Request{
		Op: transport.OpSketch, Bag: "shuf", Dst: "w2", Data: []byte("{"),
	})
	if !resp.OK() {
		t.Fatalf("push is not validated, yet: %+v", resp)
	}
	if st := fetch(); st.Counts["shuf.p0"] != 170 || st.Counts["shuf.p1"] != 30 {
		t.Fatalf("fetch with one corrupt writer: %v", st.Counts)
	}

	// Sketch state is per-edge.
	if resp := n.Handle(&transport.Request{Op: transport.OpSketch, Bag: "other"}); !resp.OK() {
		t.Fatalf("other edge fetch: %+v", resp)
	} else if st, _ := sketch.DecodeEdgeStats(resp.Data); st.Total() != 0 {
		t.Fatalf("edges share sketch state")
	}

	// So is a crafted blob with overflowing count-min dimensions, and one
	// whose sketch dimensions disagree with the others' (it must not leave
	// its counts behind either): skipped, not a panic (the TCP server has
	// no recover), not a failed merge.
	huge := append([]byte{0x01, 0, 0}, binary.AppendUvarint(binary.AppendUvarint(nil, 1<<63), 2)...)
	odd := sketch.NewEdgeStats()
	odd.Counts["shuf.p0"] = 1 << 40
	odd.CM = sketch.NewCountMin(8, 2)
	for writer, blob := range map[string][]byte{"w3": huge, "w4": odd.AppendTo(nil)} {
		if resp := n.Handle(&transport.Request{Op: transport.OpSketch, Bag: "shuf", Dst: writer, Data: blob}); !resp.OK() {
			t.Fatalf("push %s: %+v", writer, resp)
		}
	}
	if st := fetch(); st.Counts["shuf.p0"] != 170 || st.Counts["shuf.p1"] != 30 {
		t.Fatalf("fetch with three bad writers: %v", st.Counts)
	}

	// SketchClear drops the edge's state.
	if resp := n.Handle(&transport.Request{
		Op: transport.OpSketch, Bag: "shuf", Arg: transport.SketchClear,
	}); !resp.OK() {
		t.Fatalf("clear: %+v", resp)
	}
	if st := fetch(); st.Total() != 0 {
		t.Fatalf("state survived clear: %v", st.Counts)
	}
}

// TestNodeSketchExchange: a producer's exchange gets the published map back
// exactly when the map is newer than the version the producer holds, the
// node keeps only the newest published version, a stats-less exchange
// stores nothing, and clear forgets the map with the stats.
func TestNodeSketchExchange(t *testing.T) {
	n := NewNode("s0")
	exchange := func(writer string, stats []byte, held int64) []byte {
		t.Helper()
		resp := n.Handle(&transport.Request{Op: transport.OpSketch, Bag: "shuf", Dst: writer, Data: stats, Arg: held})
		if !resp.OK() {
			t.Fatalf("exchange: %+v", resp)
		}
		return resp.Data
	}
	publish := func(version int64, blob string) {
		t.Helper()
		if resp := n.Handle(&transport.Request{Op: transport.OpSketch, Bag: "shuf", Data: []byte(blob), Arg: version}); !resp.OK() {
			t.Fatalf("publish: %+v", resp)
		}
	}
	if got := exchange("w0", nil, 1); got != nil {
		t.Fatalf("map %q before any publish", got)
	}
	publish(3, "v3")
	publish(2, "v2") // late: dropped
	if got := exchange("w0", nil, 1); string(got) != "v3" {
		t.Fatalf("held 1, got %q, want v3", got)
	}
	if got := exchange("w0", nil, 3); got != nil {
		t.Fatalf("held 3, got %q, want nothing", got)
	}
	// Stats-less exchanges stored nothing; a map is not a writer.
	resp := n.Handle(&transport.Request{Op: transport.OpSketch, Bag: "shuf"})
	if st, err := sketch.DecodeEdgeStats(resp.Data); err != nil || st.Total() != 0 {
		t.Fatalf("fetch after stats-less exchanges: %v, %v", st, err)
	}
	n.Handle(&transport.Request{Op: transport.OpSketch, Bag: "shuf", Arg: transport.SketchClear})
	if got := exchange("w0", nil, 1); got != nil {
		t.Fatalf("map %q survived clear", got)
	}
}

// TestStoredPayloadsAreKeptNotCopied pins the ownership rule on the node: an
// inserted chunk and a pushed blob are kept as the slice that arrived, and a
// payload in a mostly empty buffer — a flushed partial chunk — is copied to
// its size so it cannot pin the buffer.
func TestStoredPayloadsAreKeptNotCopied(t *testing.T) {
	n := NewNode("s0")
	full := bytes.Repeat([]byte{7}, 4096)
	insert(t, n, "b#0", full)
	partial := make([]byte, 100, 64<<10)
	insert(t, n, "b#0", partial)
	for i, in := range [][]byte{full, partial} {
		resp := n.Handle(&transport.Request{Op: transport.OpReadAt, Bag: "b#0", Arg: int64(i)})
		if !resp.OK() || !bytes.Equal(resp.Data, in) {
			t.Fatalf("chunk %d read back differently", i)
		}
		kept := &resp.Data[0] == &in[0]
		if wantKept := i == 0; kept != wantKept {
			t.Fatalf("chunk %d (len %d cap %d): kept=%v, want %v", i, len(in), cap(in), kept, wantKept)
		}
		if cap(resp.Data) > 2*len(resp.Data) {
			t.Fatalf("chunk %d of %d bytes pins %d", i, len(resp.Data), cap(resp.Data))
		}
	}
}

func TestNodeDeletePrefix(t *testing.T) {
	n := NewNode("s0")
	for _, b := range []string{"j1/in#0", "j1/out~p0@e0#2", "j1/gb.shuf.p3.s1#0", "j2/in#0", "other#1"} {
		insert(t, n, b, []byte{1})
	}
	// Sketch state under the prefix is dropped too.
	st := sketch.NewEdgeStats()
	blob, err := st.Encode()
	if err != nil {
		t.Fatal(err)
	}
	n.Handle(&transport.Request{Op: transport.OpSketch, Bag: "j1/gb.shuf", Dst: "w0", Data: blob})

	resp := n.Handle(&transport.Request{Op: transport.OpDeletePrefix, Bag: "j1/"})
	if !resp.OK() {
		t.Fatalf("delete prefix: %+v", resp)
	}
	names := n.BagNames()
	for _, name := range names {
		if name != "j2/in#0" && name != "other#1" {
			t.Fatalf("bag %q survived / was wrongly deleted; remaining %v", name, names)
		}
	}
	if len(names) != 2 {
		t.Fatalf("remaining bags = %v, want j2/in#0 and other#1", names)
	}
	n.sketchMu.Lock()
	_, sketchAlive := n.sketches["j1/gb.shuf"]
	n.sketchMu.Unlock()
	if sketchAlive {
		t.Fatal("sketch state under deleted prefix survived")
	}
	// The empty prefix is refused outright.
	if resp := n.Handle(&transport.Request{Op: transport.OpDeletePrefix, Bag: ""}); resp.OK() {
		t.Fatal("empty prefix accepted")
	}
}

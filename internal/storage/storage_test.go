package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/transport"
)

func insert(t *testing.T, n *Node, bagName string, data []byte) {
	t.Helper()
	resp := n.Handle(&transport.Request{Op: transport.OpInsert, Bag: bagName, Data: data})
	if !resp.OK() {
		t.Fatalf("insert: %+v", resp)
	}
}

// insertID inserts data under chunk id.
func insertID(t *testing.T, n *Node, bagName string, id uint64, data []byte) {
	t.Helper()
	resp := n.Handle(&transport.Request{Op: transport.OpInsert, Bag: bagName, Arg: int64(id), Data: data})
	if !resp.OK() {
		t.Fatalf("insert: %+v", resp)
	}
}

// take sends OpTake for id and returns the reply's status.
func take(n *Node, bagName string, id uint64) int {
	return n.Handle(&transport.Request{Op: transport.OpTake, Bag: bagName, Arg: int64(id)}).Status
}

func TestNodeInsertRemoveFIFO(t *testing.T) {
	n := NewNode("s0")
	for i := 0; i < 10; i++ {
		insertID(t, n, "b", 1<<63+uint64(i), []byte{byte(i)})
	}
	n.Handle(&transport.Request{Op: transport.OpSeal, Bag: "b"})
	for i := 0; i < 10; i++ {
		resp := n.Handle(&transport.Request{Op: transport.OpRemove, Bag: "b"})
		if !resp.OK() || resp.Data[0] != byte(i) {
			t.Fatalf("remove %d: %+v", i, resp)
		}
		if resp.ID != 1<<63+uint64(i) {
			t.Fatalf("remove %d: ID = %#x", i, resp.ID)
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
	n.Handle(&transport.Request{Op: transport.OpRewind, Bag: "b"})
	for i := 0; i < 5; i++ {
		resp := n.Handle(&transport.Request{Op: transport.OpRemove, Bag: "b"})
		if !resp.OK() || resp.Data[0] != byte(i) {
			t.Fatalf("replay %d after rewind: %+v", i, resp)
		}
	}
}

// TestNodeTake pins OpTake, the replica protocol: a present id is won
// once, a taken one is lost, an unseen id leaves a tombstone its late
// insert lands on, and a rewind clears it all.
func TestNodeTake(t *testing.T) {
	n := NewNode("s0")
	for i := uint64(0); i < 4; i++ {
		insertID(t, n, "b", 10+i, []byte{byte(i)})
	}
	// Present: won once; removes then skip it wherever it sits.
	if st := take(n, "b", 12); st != transport.StatusOK {
		t.Fatalf("take of a present id: status %d", st)
	}
	// Already taken, out of order and by a remove.
	if st := take(n, "b", 12); st != transport.StatusEmpty {
		t.Fatalf("second take: status %d", st)
	}
	if resp := n.Handle(&transport.Request{Op: transport.OpRemove, Bag: "b"}); resp.ID != 10 {
		t.Fatalf("remove: %+v", resp)
	}
	if st := take(n, "b", 10); st != transport.StatusEmpty {
		t.Fatalf("take of a removed id: status %d", st)
	}
	// Tombstone, then the late insert lands taken.
	if st := take(n, "b", 99); st != transport.StatusOK {
		t.Fatalf("take of an unseen id: status %d", st)
	}
	if st := take(n, "b", 99); st != transport.StatusEmpty {
		t.Fatalf("second take of an unseen id: status %d", st)
	}
	insertID(t, n, "b", 99, []byte{99})
	n.Handle(&transport.Request{Op: transport.OpSeal, Bag: "b"})
	var got []uint64
	for {
		resp := n.Handle(&transport.Request{Op: transport.OpRemove, Bag: "b"})
		if resp.Status == transport.StatusEmpty {
			break
		}
		got = append(got, resp.ID)
	}
	if fmt.Sprint(got) != "[11 13]" {
		t.Fatalf("removes after takes returned ids %v, want [11 13]", got)
	}
	if resp := n.Handle(&transport.Request{Op: transport.OpSample, Bag: "b"}); resp.ReadChunks != 5 || resp.ReadBytes != 5 {
		t.Fatalf("sample after takes: %+v", resp)
	}
	// Rewind clears: every chunk, the late one too, is untaken again.
	n.Handle(&transport.Request{Op: transport.OpRewind, Bag: "b"})
	if resp := n.Handle(&transport.Request{Op: transport.OpSample, Bag: "b"}); resp.ReadChunks != 0 || resp.ReadBytes != 0 {
		t.Fatalf("sample after rewind: %+v", resp)
	}
	for _, id := range []uint64{99, 12, 10} {
		if st := take(n, "b", id); st != transport.StatusOK {
			t.Fatalf("take %d after rewind: status %d", id, st)
		}
	}
	got = got[:0]
	for {
		resp := n.Handle(&transport.Request{Op: transport.OpRemove, Bag: "b"})
		if resp.Status == transport.StatusEmpty {
			break
		}
		got = append(got, resp.ID)
	}
	if fmt.Sprint(got) != "[11 13]" {
		t.Fatalf("removes after rewind and takes returned ids %v, want [11 13]", got)
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
	// The restarted node rebuilds the chunk index from the file; the taken
	// marks reset (the master rewinds/restarts affected tasks).
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
		insertID(t, n, "b", uint64(100+i), []byte{byte(i)})
	}
	if st := take(n, "b", 100); st != transport.StatusOK {
		t.Fatalf("disk take: status %d", st)
	}
	resp := n.Handle(&transport.Request{Op: transport.OpRemove, Bag: "b"})
	if !resp.OK() || resp.Data[0] != 1 || resp.ID != 101 {
		t.Fatalf("disk remove after take: %+v", resp)
	}
	resp = n.Handle(&transport.Request{Op: transport.OpReadAt, Bag: "b", Arg: 2})
	if !resp.OK() || resp.Data[0] != 2 || resp.ID != 102 {
		t.Fatalf("disk readAt: %+v", resp)
	}
	resp = n.Handle(&transport.Request{Op: transport.OpSample, Bag: "b"})
	if resp.TotalChunks != 10 || resp.ReadChunks != 2 || resp.ReadBytes != 2 {
		t.Fatalf("disk sample: %+v", resp)
	}
	n.Handle(&transport.Request{Op: transport.OpRewind, Bag: "b"})
	resp = n.Handle(&transport.Request{Op: transport.OpRemove, Bag: "b"})
	if !resp.OK() || resp.Data[0] != 0 {
		t.Fatalf("disk rewind: %+v", resp)
	}
	n.Handle(&transport.Request{Op: transport.OpDiscard, Bag: "b"})
	resp = n.Handle(&transport.Request{Op: transport.OpSample, Bag: "b"})
	if resp.TotalBytes != 0 {
		t.Fatalf("disk discard: %+v", resp)
	}
	n.Handle(&transport.Request{Op: transport.OpDelete, Bag: "b"})
}

// bagFile returns the path of the only bag file under dir.
func bagFile(t *testing.T, dir string) string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "bag-*.dat"))
	if err != nil || len(files) != 1 {
		t.Fatalf("bag files under %s: %v, %v", dir, files, err)
	}
	return files[0]
}

// TestDiskBackendReopenChecksFile: a reopened bag file is read only if its
// header names the format, a record length that is negative is refused
// rather than read (it would never advance the scan), and a write cut short
// by a crash is dropped: a record's, leaving the whole chunks before it, or
// the file header's, leaving an empty bag.
func TestDiskBackendReopenChecksFile(t *testing.T) {
	write := func(t *testing.T) (dir, path string) {
		dir = t.TempDir()
		n := NewNode("s0", WithDir(dir))
		for i := 0; i < 3; i++ {
			insertID(t, n, "b", uint64(10+i), bytes.Repeat([]byte{byte(i)}, 10))
		}
		return dir, bagFile(t, dir)
	}
	patch := func(t *testing.T, path string, off int64, b []byte) {
		t.Helper()
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteAt(b, off); err != nil {
			t.Fatal(err)
		}
	}
	// open reopens dir's bag, bounded: a scan that never advances hangs.
	open := func(t *testing.T, dir string) error {
		t.Helper()
		done := make(chan error, 1)
		go func() {
			_, err := newDiskBackend(dir, "b")
			done <- err
		}()
		select {
		case err := <-done:
			return err
		case <-time.After(2 * time.Second):
			t.Fatal("reopening the bag file did not return")
			return nil
		}
	}
	second := int64(diskFileHdr + diskHeader + 10) // the second record's header

	t.Run("negative length", func(t *testing.T) {
		dir, path := write(t)
		patch(t, path, second, []byte{0xFF, 0xFF, 0xFF, 0xF4}) // -12
		if err := open(t, dir); err == nil || !strings.Contains(err.Error(), path) {
			t.Fatalf("reopen of a file with a negative record length: %v", err)
		}
	})
	t.Run("flipped length", func(t *testing.T) {
		// The second record's length grows by 256: without its checksum
		// the record would run past the end of the file, and the open
		// would drop it and the third as a cut tail.
		dir, path := write(t)
		patch(t, path, second+2, []byte{0x01})
		at := fmt.Sprintf("offset %d", second)
		if err := open(t, dir); err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), at) {
			t.Fatalf("reopen of a file with a flipped record length: %v, want an error naming the file and %s", err, at)
		}
	})
	t.Run("flipped payload", func(t *testing.T) {
		dir, path := write(t)
		patch(t, path, second+diskHeader+3, []byte{0xEE})
		if err := open(t, dir); err != nil {
			t.Fatal(err)
		}
		n := NewNode("s0", WithDir(dir))
		if resp := n.Handle(&transport.Request{Op: transport.OpRemove, Bag: "b"}); !resp.OK() || resp.ID != 10 {
			t.Fatalf("the chunk before the flipped one: %+v", resp)
		}
		at := fmt.Sprintf("offset %d", second)
		if resp := n.Handle(&transport.Request{Op: transport.OpRemove, Bag: "b"}); resp.OK() || !strings.Contains(resp.Err, at) {
			t.Fatalf("read of a chunk with a flipped payload byte: %+v, want an error naming %s", resp, at)
		}
	})
	t.Run("wrong version", func(t *testing.T) {
		dir, path := write(t)
		patch(t, path, int64(len(diskMagic)), []byte{0, 0, 0, diskVersion + 1})
		if err := open(t, dir); err == nil || !strings.Contains(err.Error(), path) {
			t.Fatalf("reopen of a file of another version: %v", err)
		}
	})
	t.Run("no header", func(t *testing.T) {
		dir, path := write(t)
		patch(t, path, 0, []byte("XXXX"))
		if err := open(t, dir); err == nil || !strings.Contains(err.Error(), path) {
			t.Fatalf("reopen of a file without the header: %v", err)
		}
	})
	// cutHeader reopens a bag whose header write did not land, and checks
	// that it opens empty and takes inserts again.
	cutHeader := func(t *testing.T, dir string) {
		t.Helper()
		if err := open(t, dir); err != nil {
			t.Fatal(err)
		}
		n := NewNode("s0", WithDir(dir))
		if resp := n.Handle(&transport.Request{Op: transport.OpRemove, Bag: "b"}); resp.OK() {
			t.Fatalf("a bag with a cut header kept a chunk: %+v", resp)
		}
		insertID(t, n, "b", 99, []byte("new"))
		if resp := n.Handle(&transport.Request{Op: transport.OpRemove, Bag: "b"}); !resp.OK() || resp.ID != 99 {
			t.Fatalf("insert after a cut header: %+v", resp)
		}
	}
	t.Run("short header", func(t *testing.T) {
		dir, path := write(t)
		if err := os.Truncate(path, diskFileHdr-3); err != nil {
			t.Fatal(err)
		}
		cutHeader(t, dir)
	})
	t.Run("zeroed header", func(t *testing.T) {
		dir, path := write(t)
		patch(t, path, 0, make([]byte, diskFileHdr+diskHeader))
		cutHeader(t, dir)
	})
	t.Run("truncated tail", func(t *testing.T) {
		dir, path := write(t)
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, info.Size()-4); err != nil {
			t.Fatal(err)
		}
		if err := open(t, dir); err != nil {
			t.Fatal(err)
		}
		n := NewNode("s0", WithDir(dir))
		for i := 0; i < 2; i++ {
			resp := n.Handle(&transport.Request{Op: transport.OpRemove, Bag: "b"})
			if !resp.OK() || resp.ID != uint64(10+i) || !bytes.Equal(resp.Data, bytes.Repeat([]byte{byte(i)}, 10)) {
				t.Fatalf("whole chunk %d after a cut tail: %+v", i, resp)
			}
		}
		if resp := n.Handle(&transport.Request{Op: transport.OpRemove, Bag: "b"}); resp.OK() {
			t.Fatalf("the cut chunk came back: %+v", resp)
		}
		insertID(t, n, "b", 99, []byte("new"))
		resp := n.Handle(&transport.Request{Op: transport.OpRemove, Bag: "b"})
		if !resp.OK() || resp.ID != 99 || string(resp.Data) != "new" {
			t.Fatalf("insert over the cut tail: %+v", resp)
		}
	})
}

// TestDiskBackendTakeAfterReopen: chunk ids live in the record headers,
// so a reopened node takes a chunk by the id its writer chose.
func TestDiskBackendTakeAfterReopen(t *testing.T) {
	dir := t.TempDir()
	n := NewNode("s0", WithDir(dir))
	for i := 0; i < 4; i++ {
		insertID(t, n, "b", uint64(1<<40+i), bytes.Repeat([]byte{byte(i)}, 100*i+1))
	}
	n2 := NewNode("s0", WithDir(dir))
	if st := take(n2, "b", 1<<40+2); st != transport.StatusOK {
		t.Fatalf("take after reopen: status %d", st)
	}
	if st := take(n2, "b", 1<<40+2); st != transport.StatusEmpty {
		t.Fatalf("second take after reopen: status %d", st)
	}
	var got []uint64
	for {
		resp := n2.Handle(&transport.Request{Op: transport.OpRemove, Bag: "b"})
		if !resp.OK() {
			break
		}
		if i := resp.ID - 1<<40; len(resp.Data) != 100*int(i)+1 || resp.Data[0] != byte(i) {
			t.Fatalf("chunk id %#x came back with %d bytes of %d", resp.ID, len(resp.Data), resp.Data[0])
		}
		got = append(got, resp.ID)
	}
	if fmt.Sprint(got) != fmt.Sprint([]uint64{1 << 40, 1<<40 + 1, 1<<40 + 3}) {
		t.Fatalf("removes after reopen and take returned ids %v", got)
	}
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

// TestStoredPayloadsAreKeptNotCopied pins the ownership rule on the node: an
// inserted chunk is kept as the slice that arrived, and a
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
	// The empty prefix is refused outright.
	if resp := n.Handle(&transport.Request{Op: transport.OpDeletePrefix, Bag: ""}); resp.OK() {
		t.Fatal("empty prefix accepted")
	}
}

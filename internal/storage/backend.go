package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// memBackend keeps a bag's chunks in memory.
type memBackend struct {
	chunks    [][]byte
	readIdx   int64
	totalSize int64
	readSize  int64
}

// insert keeps the slice it is given: a chunk is immutable once emitted
// and belongs to whoever receives it (see transport.Request.Data).
func (m *memBackend) insert(chunk []byte) error {
	c := rightSize(chunk)
	m.chunks = append(m.chunks, c)
	m.totalSize += int64(len(c))
	return nil
}

// rightSize returns b, or a copy of it when b's backing array is well above
// its length. Stored payloads stay for the life of a bag, and the common
// oversized one is a flushed partial chunk — a few records in a buffer of
// the full chunk size — which would pin that whole buffer.
func rightSize(b []byte) []byte {
	if cap(b)-len(b) <= len(b)/4 {
		return b
	}
	return bytes.Clone(b)
}

func (m *memBackend) remove() ([]byte, bool, error) {
	if m.readIdx >= int64(len(m.chunks)) {
		return nil, false, nil
	}
	c := m.chunks[m.readIdx]
	m.readIdx++
	m.readSize += int64(len(c))
	return c, true, nil
}

func (m *memBackend) readAt(i int64) ([]byte, bool, error) {
	if i < 0 || i >= int64(len(m.chunks)) {
		return nil, false, nil
	}
	return m.chunks[i], true, nil
}

func (m *memBackend) rewindTo(pos int64) error {
	if pos < 0 || pos > int64(len(m.chunks)) {
		return fmt.Errorf("storage: rewind position %d out of range [0,%d]", pos, len(m.chunks))
	}
	m.readIdx = pos
	m.readSize = 0
	for i := int64(0); i < pos; i++ {
		m.readSize += int64(len(m.chunks[i]))
	}
	return nil
}

func (m *memBackend) discard() error {
	m.chunks = nil
	m.readIdx = 0
	m.totalSize = 0
	m.readSize = 0
	return nil
}

func (m *memBackend) stats() (int64, int64, int64, int64) {
	return int64(len(m.chunks)), m.readIdx, m.totalSize, m.readSize
}

func (m *memBackend) destroy() error { return m.discard() }

// diskBackend stores a bag as a single append-only file: a sequence of
// 4-byte big-endian length prefixes followed by chunk payloads, mirroring
// the paper's ext4-file-per-bag implementation. The chunk offset index is
// kept in memory and rebuilt from the file on open, so a restarted storage
// node recovers its bags.
type diskBackend struct {
	mu       sync.Mutex
	f        *os.File
	path     string
	offsets  []int64 // byte offset of each chunk's length prefix
	sizes    []int32
	readIdx  int64
	totalSz  int64
	readSz   int64
	writeOff int64
}

// newDiskBackend opens (or creates) the file for bag under dir.
func newDiskBackend(dir, bag string) (*diskBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// Hash the bag name into a filesystem-safe file name.
	h := fnv.New64a()
	io.WriteString(h, bag)
	path := filepath.Join(dir, fmt.Sprintf("bag-%016x.dat", h.Sum64()))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	d := &diskBackend{f: f, path: path}
	if err := d.rebuildIndex(); err != nil {
		f.Close()
		return nil, err
	}
	return d, nil
}

// rebuildIndex scans the file to reconstruct the chunk offset index.
func (d *diskBackend) rebuildIndex() error {
	info, err := d.f.Stat()
	if err != nil {
		return err
	}
	size := info.Size()
	var off int64
	var hdr [4]byte
	for off+4 <= size {
		if _, err := d.f.ReadAt(hdr[:], off); err != nil {
			return err
		}
		n := int32(binary.BigEndian.Uint32(hdr[:]))
		if off+4+int64(n) > size {
			break // truncated trailing write; ignore
		}
		d.offsets = append(d.offsets, off)
		d.sizes = append(d.sizes, n)
		d.totalSz += int64(n)
		off += 4 + int64(n)
	}
	d.writeOff = off
	return nil
}

func (d *diskBackend) insert(chunk []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(chunk)))
	if _, err := d.f.WriteAt(hdr[:], d.writeOff); err != nil {
		return err
	}
	if _, err := d.f.WriteAt(chunk, d.writeOff+4); err != nil {
		return err
	}
	d.offsets = append(d.offsets, d.writeOff)
	d.sizes = append(d.sizes, int32(len(chunk)))
	d.writeOff += 4 + int64(len(chunk))
	d.totalSz += int64(len(chunk))
	return nil
}

func (d *diskBackend) readChunk(i int64) ([]byte, error) {
	buf := make([]byte, d.sizes[i])
	if _, err := d.f.ReadAt(buf, d.offsets[i]+4); err != nil {
		return nil, err
	}
	return buf, nil
}

func (d *diskBackend) remove() ([]byte, bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.readIdx >= int64(len(d.offsets)) {
		return nil, false, nil
	}
	c, err := d.readChunk(d.readIdx)
	if err != nil {
		return nil, false, err
	}
	d.readSz += int64(len(c))
	d.readIdx++
	return c, true, nil
}

func (d *diskBackend) readAt(i int64) ([]byte, bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if i < 0 || i >= int64(len(d.offsets)) {
		return nil, false, nil
	}
	c, err := d.readChunk(i)
	return c, err == nil, err
}

func (d *diskBackend) rewindTo(pos int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if pos < 0 || pos > int64(len(d.offsets)) {
		return fmt.Errorf("storage: rewind position %d out of range [0,%d]", pos, len(d.offsets))
	}
	d.readIdx = pos
	d.readSz = 0
	for i := int64(0); i < pos; i++ {
		d.readSz += int64(d.sizes[i])
	}
	return nil
}

func (d *diskBackend) discard() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.f.Truncate(0); err != nil {
		return err
	}
	d.offsets = nil
	d.sizes = nil
	d.readIdx = 0
	d.totalSz = 0
	d.readSz = 0
	d.writeOff = 0
	return nil
}

func (d *diskBackend) stats() (int64, int64, int64, int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return int64(len(d.offsets)), d.readIdx, d.totalSz, d.readSz
}

func (d *diskBackend) destroy() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.f.Close()
	return os.Remove(d.path)
}

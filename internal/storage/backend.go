package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
)

// memBackend keeps a bag's chunks in memory.
type memBackend struct {
	chunks [][]byte
	ids    []uint64
	bytes  int64
}

// insert keeps the slice it is given: a chunk is immutable once emitted
// and belongs to whoever receives it (see transport.Request.Data).
func (m *memBackend) insert(id uint64, chunk []byte) error {
	c := rightSize(chunk)
	m.chunks = append(m.chunks, c)
	m.ids = append(m.ids, id)
	m.bytes += int64(len(c))
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

func (m *memBackend) read(i int64) ([]byte, error) { return m.chunks[i], nil }

func (m *memBackend) meta(i int64) (uint64, int64) { return m.ids[i], int64(len(m.chunks[i])) }

func (m *memBackend) count() (int64, int64) { return int64(len(m.chunks)), m.bytes }

func (m *memBackend) discard() error {
	*m = memBackend{}
	return nil
}

func (m *memBackend) destroy() error { return m.discard() }

// diskBackend stores a bag as a single append-only file, mirroring the
// paper's ext4-file-per-bag implementation: a file header (a magic number
// and a format version), then each chunk as a 12-byte record header
// (4-byte big-endian length, 8-byte big-endian chunk id) followed by its
// payload. The record index is kept in memory and rebuilt from the file on
// open, so a restarted storage node recovers its bags and their chunk ids.
type diskBackend struct {
	f        *os.File
	path     string
	offsets  []int64 // byte offset of each chunk's header
	sizes    []int32
	ids      []uint64
	bytes    int64
	writeOff int64
}

// diskHeader is the size of a chunk's record header.
const diskHeader = 12

// A bag file opens with diskMagic and a 4-byte big-endian format version,
// diskFileHdr bytes in all; a file with another header is not read.
const (
	diskMagic   = "HBAG"
	diskVersion = 1
	diskFileHdr = 8
)

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

// rebuildIndex checks the file header and scans the record headers to
// reconstruct the index. A file is created before its header is written, so
// one shorter than the header, or whose header is all zeros, is a header
// write a crash cut short: it is rewritten and the bag opens empty. Likewise
// a record that runs past the end of the file is the tail of a cut write: it
// is ignored, and the next insert overwrites it.
func (d *diskBackend) rebuildIndex() error {
	info, err := d.f.Stat()
	if err != nil {
		return err
	}
	size := info.Size()
	var fh [diskFileHdr]byte
	if size >= diskFileHdr {
		if _, err := d.f.ReadAt(fh[:], 0); err != nil {
			return err
		}
	}
	if fh == [diskFileHdr]byte{} {
		if err := d.f.Truncate(0); err != nil {
			return err
		}
		hdr := binary.BigEndian.AppendUint32([]byte(diskMagic), diskVersion)
		if _, err := d.f.WriteAt(hdr, 0); err != nil {
			return err
		}
		d.writeOff = diskFileHdr
		return nil
	}
	if string(fh[:len(diskMagic)]) != diskMagic {
		return fmt.Errorf("storage: %s is not a bag file", d.path)
	}
	if v := binary.BigEndian.Uint32(fh[len(diskMagic):]); v != diskVersion {
		return fmt.Errorf("storage: %s has bag file version %d, want %d", d.path, v, diskVersion)
	}
	off := int64(diskFileHdr)
	var hdr [diskHeader]byte
	for off+diskHeader <= size {
		if _, err := d.f.ReadAt(hdr[:], off); err != nil {
			return err
		}
		n := int32(binary.BigEndian.Uint32(hdr[:]))
		if n < 0 {
			return fmt.Errorf("storage: %s: record at offset %d has length %d", d.path, off, n)
		}
		if off+diskHeader+int64(n) > size {
			break
		}
		d.index(off, n, binary.BigEndian.Uint64(hdr[4:]))
		off += diskHeader + int64(n)
	}
	d.writeOff = off
	return nil
}

// index records a chunk whose header is at off.
func (d *diskBackend) index(off int64, n int32, id uint64) {
	d.offsets = append(d.offsets, off)
	d.sizes = append(d.sizes, n)
	d.ids = append(d.ids, id)
	d.bytes += int64(n)
}

func (d *diskBackend) insert(id uint64, chunk []byte) error {
	var hdr [diskHeader]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(chunk)))
	binary.BigEndian.PutUint64(hdr[4:], id)
	if _, err := d.f.WriteAt(hdr[:], d.writeOff); err != nil {
		return err
	}
	if _, err := d.f.WriteAt(chunk, d.writeOff+diskHeader); err != nil {
		return err
	}
	d.index(d.writeOff, int32(len(chunk)), id)
	d.writeOff += diskHeader + int64(len(chunk))
	return nil
}

func (d *diskBackend) read(i int64) ([]byte, error) {
	buf := make([]byte, d.sizes[i])
	if _, err := d.f.ReadAt(buf, d.offsets[i]+diskHeader); err != nil {
		return nil, err
	}
	return buf, nil
}

func (d *diskBackend) meta(i int64) (uint64, int64) { return d.ids[i], int64(d.sizes[i]) }

func (d *diskBackend) count() (int64, int64) { return int64(len(d.offsets)), d.bytes }

func (d *diskBackend) discard() error {
	if err := d.f.Truncate(diskFileHdr); err != nil {
		return err
	}
	d.offsets, d.sizes, d.ids = nil, nil, nil
	d.bytes, d.writeOff = 0, diskFileHdr
	return nil
}

func (d *diskBackend) destroy() error {
	d.f.Close()
	return os.Remove(d.path)
}

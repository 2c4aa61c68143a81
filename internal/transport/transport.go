// Package transport carries storage-protocol messages between Hurricane
// compute nodes and storage nodes.
//
// Two implementations are provided: an in-process transport used by the
// embedded engine, the test suite, and the benchmarks (with configurable
// latency and crash injection), and a TCP transport on the standard
// library's net package for multi-process deployments. Both speak the same
// request/response protocol, so the engine is agnostic to which one is
// wired in.
package transport

import (
	"context"
	"errors"
	"fmt"
)

// Op identifies a storage-protocol operation.
type Op uint8

// Storage protocol operations. The set mirrors the bag API from the paper
// (§4.3): insert, remove, plus the auxiliary operations — sealing a bag when
// its producers finish, sampling the amount of data remaining, rewinding for
// failure recovery or reuse, renaming (clone-output adoption), discarding,
// and garbage collection.
const (
	OpInsert  Op = iota + 1 // append a chunk to a bag
	OpRemove                // remove the next unread chunk from a bag
	OpSeal                  // mark a bag as complete (no more inserts)
	OpSample                // report bag statistics (size, position)
	OpRewind                // reset the bag's read pointer to the start
	OpDiscard               // drop a bag's contents but keep the bag
	OpDelete                // garbage collect a bag entirely
	OpRename                // atomically rename a bag
	OpReadAt                // read chunk at index without consuming (shared scans)
	OpPing                  // liveness probe
	OpAdvance               // move the read pointer forward monotonically (replica sync)
	// OpSketch is the control exchange of one shuffle edge (Request.Bag),
	// served by the edge's home slot. It is the only control traffic a
	// producer generates, and it has four forms:
	//
	//   - producer exchange: Dst names the producer worker, Data is its
	//     cumulative edge stats (partition counts + count-min sketch; empty
	//     to report nothing yet) and Arg is the partition-map version the
	//     producer routes by. The node keeps the blob as received, in place
	//     of the producer's previous one — pushes are cumulative, so a
	//     re-push replaces rather than double-counts — and the reply's Data
	//     carries the newest published map if its version is above Arg.
	//   - map publish: Dst is empty, Data is an encoded partition map and
	//     Arg its version; the node keeps it if it is the newest it has seen.
	//   - fetch: Dst and Data are empty, Arg is 0; the reply's Data is the
	//     merge of every producer's stats, which the application master
	//     reads to record the edge's heat and heavy keys.
	//   - clear: Dst and Data are empty, Arg is SketchClear; the node
	//     forgets the edge (job completion / failure recovery).
	OpSketch
	// OpDeletePrefix garbage collects every bag (and every shuffle-edge
	// sketch) whose name starts with Request.Bag. The multi-job scheduler
	// uses it to discard a completed job's namespaced bags — work bags,
	// partition maps, runtime-derived partition bags — without having to
	// enumerate names it cannot know in advance.
	OpDeletePrefix
)

// SketchClear, passed in Request.Arg of an OpSketch with neither producer
// nor payload, drops the edge's state instead of fetching its stats.
const SketchClear int64 = 1

var opNames = map[Op]string{
	OpInsert: "insert", OpRemove: "remove", OpSeal: "seal",
	OpSample: "sample", OpRewind: "rewind", OpDiscard: "discard",
	OpDelete: "delete", OpRename: "rename", OpReadAt: "readAt",
	OpPing: "ping", OpAdvance: "advance", OpSketch: "sketch",
	OpDeletePrefix: "deletePrefix",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Request is a storage-protocol request.
type Request struct {
	Op  Op
	Bag string // target bag identifier
	// Data is the payload: the chunk for OpInsert, a stats or map blob for
	// OpSketch. It is immutable once the request is passed to a Client, and
	// the receiving node may keep it: callers never write to it again.
	Data []byte
	Arg  int64  // operation argument (e.g. chunk index for OpReadAt)
	Dst  string // destination bag name for OpRename
}

// Status codes carried in Response.Status.
const (
	StatusOK      = 0 // success
	StatusEmpty   = 1 // bag exhausted and sealed: no more chunks, ever
	StatusAgain   = 2 // bag exhausted but not sealed: more chunks may arrive
	StatusNoBag   = 3 // bag does not exist
	StatusErr     = 4 // other error, see Err
	StatusRemoved = 5 // storage node is draining and rejects inserts
)

// Response is a storage-protocol response.
type Response struct {
	Status int
	Err    string
	// Data is the payload: the chunk for OpRemove / OpReadAt, a blob for
	// OpSketch. Immutable like Request.Data: a node may hand one stored
	// slice to any number of readers, so nobody writes to it.
	Data []byte
	// Sample results (OpSample) and general numeric results.
	TotalChunks int64 // chunks ever inserted
	ReadChunks  int64 // chunks already consumed
	TotalBytes  int64 // bytes ever inserted
	ReadBytes   int64 // bytes already consumed
	Sealed      bool
}

// OK reports whether the response indicates success.
func (r *Response) OK() bool { return r.Status == StatusOK }

// Error converts a failure response into a Go error (nil on success).
func (r *Response) Error() error {
	switch r.Status {
	case StatusOK:
		return nil
	case StatusEmpty:
		return ErrEmpty
	case StatusAgain:
		return ErrAgain
	case StatusNoBag:
		return ErrNoBag
	case StatusRemoved:
		return ErrDraining
	default:
		if r.Err != "" {
			return errors.New(r.Err)
		}
		return ErrFailed
	}
}

// Sentinel errors mapped from response status codes.
var (
	// ErrEmpty means the bag is sealed and fully consumed: a worker that
	// sees ErrEmpty from every storage node is done.
	ErrEmpty = errors.New("transport: bag empty")
	// ErrAgain means the bag has no chunk available right now but is not
	// sealed; the caller should retry later.
	ErrAgain = errors.New("transport: bag temporarily empty")
	// ErrNoBag means the bag does not exist on the node.
	ErrNoBag = errors.New("transport: no such bag")
	// ErrDraining means the storage node is being removed and rejects
	// inserts (it still serves removes until its bags drain, §3.4).
	ErrDraining = errors.New("transport: storage node draining")
	// ErrFailed is a generic failure.
	ErrFailed = errors.New("transport: request failed")
	// ErrNodeDown means the target node is unreachable (crash injection
	// or closed connection).
	ErrNodeDown = errors.New("transport: node down")
)

// Handler processes storage requests on a storage node.
type Handler interface {
	Handle(req *Request) *Response
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(req *Request) *Response

// Handle implements Handler.
func (f HandlerFunc) Handle(req *Request) *Response { return f(req) }

// Client issues storage requests to named storage nodes. Implementations
// must be safe for concurrent use; batch sampling issues many concurrent
// calls per client.
type Client interface {
	// Call sends req to the named node and waits for its response.
	Call(ctx context.Context, node string, req *Request) (*Response, error)
	// Close releases client resources.
	Close() error
}

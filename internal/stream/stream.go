// Package stream is Hurricane's continuous-ingestion subsystem: it turns
// unbounded record sources into event-time tumbling windows and executes
// every window as a complete DAG job on the multi-job scheduler.
//
// The paper leaves "a more sophisticated dataflow execution model for
// streaming workloads" as future work (§3.1). Every engine task starts
// once its inputs are sealed, so the stream cuts its unbounded input into
// sealed pieces, in the spirit of micro-batch streaming systems:
//
//   - ingesters append source records into per-window live bags as they
//     arrive, routing by event time;
//   - a low-watermark over all sources (with an idle-source timeout, so a
//     stalled source cannot wedge the stream) seals a window's source bags
//     once it passes the window end;
//   - each sealed window is submitted through Cluster.SubmitJob as an
//     ordinary namespaced job, so every window gets partitioned shuffle
//     edges, cloning, fair-share leasing, and
//     failure recovery for free, and in-flight windows are bounded by a
//     stream-level in-flight cap;
//   - a record arriving after its window sealed is late and folds into
//     the lowest open window;
//   - cross-window skew memory: when a window finishes, its master's final
//     partition maps and merged edge sketches (core.EdgeMemory) become seed
//     maps via shuffle.WarmStart, and every later window's submission
//     carries them (core.JobConfig.Seeds) for its edges to route by —
//     known-hot keys are pre-isolated instead of rediscovered
//     from scratch inside every window, and the stream itself writes
//     nothing into a window's namespace but its source records.
//
// A failed window job is retried in place: core.JobHandle.Reset rewinds
// the window's sealed source bags and wipes every derived bag, so the
// retry reprocesses exactly the sealed input (exactly-once per window)
// without blocking successor windows.
package stream

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/bag"
	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/shuffle"
)

// Record is one source record: an event-time stamp (unix nanoseconds) and
// the value the window's source bag holds.
type Record[T any] struct {
	Time  int64
	Value T
}

// Source feeds one source bag of the window application: SourceOf builds
// one. The ingestion pump polls it from a single goroutine.
type Source interface {
	// poll fetches the records now available and returns how many.
	poll(ctx context.Context) (int, error)
	// time is the event time of the last poll's record i.
	time(i int) int64
	// encoder opens an encoder of the bag's codec emitting chunks of size
	// bytes: add appends the last poll's record i.
	encoder(size int, emit func(chunk.Chunk) error) (add func(i int) error, close func() error)
}

// SourceOf returns the Source that feeds a source bag the values poll
// returns, encoded with codec, the codec the window's tasks read the bag
// with. poll returns the records now available, none when none are (the
// pump polls again after pollInterval); io.EOF ends the source, any other
// error aborts the stream, and poll must respect ctx. Every value is
// encoded before the next poll.
func SourceOf[T any](codec chunk.Codec[T], poll func(ctx context.Context) ([]Record[T], error)) Source {
	return &typedSource[T]{codec: codec, next: poll}
}

type typedSource[T any] struct {
	codec chunk.Codec[T]
	next  func(context.Context) ([]Record[T], error)
	recs  []Record[T] // the last poll's
}

func (s *typedSource[T]) poll(ctx context.Context) (int, error) {
	recs, err := s.next(ctx)
	s.recs = recs
	return len(recs), err
}

func (s *typedSource[T]) time(i int) int64 { return s.recs[i].Time }

func (s *typedSource[T]) encoder(size int, emit func(chunk.Chunk) error) (func(int) error, func() error) {
	enc := chunk.NewEncoder(s.codec, size, func(c chunk.Chunk, _ int) error { return emit(c) })
	return func(i int) error { return enc.Append(s.recs[i].Value) }, enc.Close
}

// pollInterval is the pump's idle sleep between source sweeps.
const pollInterval = 2 * time.Millisecond

// idleTimeout excludes a source from the low watermark after it has
// delivered nothing for this long, so one stalled source cannot wedge every
// window behind it. An excluded source rejoins the watermark as soon as it
// delivers again.
const idleTimeout = 500 * time.Millisecond

// maxRetries is how many times a failed window job is reset and
// resubmitted before the window is reported failed.
const maxRetries = 1

// Spec describes a continuous-ingestion stream.
type Spec struct {
	// Name identifies the stream; window jobs are named "<Name>.w<i>" and
	// own the matching bag namespaces. It must not contain '/'.
	Name string
	// App is the window application template: the DAG executed once per
	// window. Its source bags are fed by Sources; all other bags behave
	// exactly as in a batch job (including partitioned shuffle edges).
	App *core.App
	// Sources maps each source bag of App to the Source that feeds it.
	// Every source bag must have an entry — an unfed source bag would
	// never seal and the window job would never finish.
	Sources map[string]Source
	// Window is the tumbling window width in event time.
	Window time.Duration
	// Origin anchors window 0's start in event time. Zero aligns window 0
	// to the first record observed.
	Origin int64
	// MaxInFlight bounds windows submitted but not yet completed
	// (default 4).
	MaxInFlight int
	// ColdStart disables cross-window skew memory: every window starts
	// from the plain base partition map (the baseline the streaming
	// benchmark measures warm-start against).
	ColdStart bool
}

func (s *Spec) fill() {
	if s.MaxInFlight <= 0 {
		s.MaxInFlight = 4
	}
}

// WindowResult is the outcome of one window. Results are delivered by
// Handle.Next in window order once the window's job (including retries)
// has completed.
type WindowResult struct {
	// Index is the window's position in the stream (0-based).
	Index int
	// Start and End bound the window in event time: [Start, End).
	Start, End int64
	// Records is the number of records sealed into the window's source
	// bags, including late records folded forward from earlier windows.
	Records int64
	// Attempts is how many times the window's job was submitted (1 = no
	// retry).
	Attempts int
	// Err is the terminal error after all retries, nil on success.
	Err error
	// SealedAt, SubmittedAt, and DoneAt are wall-clock timestamps:
	// watermark seal, first job submission, and job completion.
	// DoneAt−SubmittedAt is the window's execution latency;
	// SubmittedAt−SealedAt is time spent queued behind the in-flight cap.
	SealedAt, SubmittedAt, DoneAt time.Time
	// Seeded reports whether cross-window skew memory warm-started this
	// window's shuffle edges (its submission carried seed maps).
	Seeded bool

	job *core.JobHandle
	h   *Handle
}

// Bag maps a declared bag name of the window application to the physical
// (window-namespaced) bag name: read the window's outputs from it. An
// empty window's bags do not exist (no job ran); Collect on them returns
// nothing.
func (r *WindowResult) Bag(name string) string {
	return windowJobName(r.h.spec.Name, r.Index) + "/" + name
}

// Job returns the window's job handle. It is nil when submission itself
// failed — and for a window that sealed empty, which completes
// immediately without running a job (an event-time gap may cover
// thousands of empty windows; see seal).
func (r *WindowResult) Job() *core.JobHandle { return r.job }

// Profile returns the window job's execution profile (nil for empty or
// unsubmitted windows). Warm-started windows show their gains here: the
// first consumer task's queue+read wait shrinks when the seeded
// partition map spares the edge a mid-run re-shuffle.
func (r *WindowResult) Profile() *obs.Profile {
	if r.job == nil {
		return nil
	}
	return r.job.Profile()
}

// Discard garbage collects the window's bags (outputs included) and
// releases the window job's name claims.
func (r *WindowResult) Discard(ctx context.Context) error {
	if r.job == nil {
		return nil
	}
	return r.job.Discard(ctx)
}

// Stats is a point-in-time snapshot of the stream's progress.
type Stats struct {
	// Watermark is the stream's current event-time low watermark.
	Watermark int64
	// Ingested counts records appended to window bags; Late counts the
	// records among them that arrived after their window sealed (each
	// folded into the lowest open window).
	Ingested, Late int64
	// Open / Sealed / InFlight / Completed / Failed count windows.
	Open, Sealed, InFlight, Completed, Failed int
	// MemoryWindow is the index of the window the current skew memory was
	// captured from (-1 before any window completed).
	MemoryWindow int
}

// Handle is the caller's grip on a running stream.
type Handle struct {
	spec  Spec
	c     *core.Cluster
	store *bag.Store

	ctx    context.Context
	cancel context.CancelFunc

	submitQ chan *window
	sem     chan struct{} // in-flight window slots
	// submitLock serializes SubmitJob calls: every window job is built
	// from the same App template, and submission re-validates (and
	// re-derives the wiring of) that shared graph.
	submitLock sync.Mutex

	wg       sync.WaitGroup // submitter + watchers
	pumpDone chan struct{}

	// pump-owned state (single goroutine, no lock needed). The counters
	// are mirrored into the mu-guarded Stats fields once per sweep
	// (advance/drainSeal), so the per-record ingestion hot path takes no
	// locks; Stats may lag by at most one poll interval.
	pIngested, pLate int64

	mu          sync.Mutex
	cond        *sync.Cond
	origin      int64
	originSet   bool
	watermark   int64
	ingested    int64
	lateTotal   int64
	open        map[int]*window
	nextSeal    int
	sealedCount int
	results     map[int]*WindowResult
	nextDeliver int
	completed   int
	failedCount int
	seeds       map[string]*shuffle.PartitionMap // from window memoryWin, by template bag
	memoryWin   int
	draining    bool
	finished    bool
	pumpErr     error

	// cached observability handles, labeled stream=<name> (nil-safe
	// no-ops on an unobserved cluster)
	obsv      *obs.Observer
	mIngested *obs.Gauge
	mLate     *obs.Gauge
	mOpen     *obs.Gauge
	mSealed   *obs.Counter
	mRetried  *obs.Counter
	mWarm     *obs.Counter
}

// windowJobName names window idx's job (and bag namespace).
func windowJobName(stream string, idx int) string {
	return fmt.Sprintf("%s.w%d", stream, idx)
}

// Run starts a stream on the cluster and returns its handle. The stream
// runs until every source is exhausted, Drain is called, or ctx is cancelled (which aborts in-flight window
// jobs). Cluster.Shutdown while the stream runs does not deadlock it:
// the pump and window watchers observe the pool teardown and fail the
// remaining windows, leaving already-sealed records in storage.
func Run(ctx context.Context, c *core.Cluster, spec Spec) (*Handle, error) {
	if spec.Name == "" {
		return nil, fmt.Errorf("stream: empty stream name")
	}
	for _, r := range spec.Name {
		if r == '/' {
			return nil, fmt.Errorf("stream: name %q must not contain '/'", spec.Name)
		}
	}
	if spec.App == nil {
		return nil, fmt.Errorf("stream: no window application")
	}
	if spec.Window <= 0 {
		return nil, fmt.Errorf("stream: window width must be positive")
	}
	if err := spec.App.Validate(); err != nil {
		return nil, err
	}
	srcBags := make(map[string]bool)
	for _, b := range spec.App.Bags() {
		if spec.App.BagSpecFor(b).Source {
			srcBags[b] = true
		}
	}
	if len(spec.Sources) == 0 {
		return nil, fmt.Errorf("stream: no sources")
	}
	for name := range spec.Sources {
		if !srcBags[name] {
			return nil, fmt.Errorf("stream: source %q is not a source bag of the window application", name)
		}
	}
	for name := range srcBags {
		if spec.Sources[name] == nil {
			return nil, fmt.Errorf("stream: source bag %q has no Source; its windows would never seal", name)
		}
	}
	spec.fill()

	sctx, cancel := context.WithCancel(ctx)
	h := &Handle{
		spec:      spec,
		c:         c,
		store:     c.Store(),
		ctx:       sctx,
		cancel:    cancel,
		submitQ:   make(chan *window, 1024),
		sem:       make(chan struct{}, spec.MaxInFlight),
		pumpDone:  make(chan struct{}),
		open:      make(map[int]*window),
		results:   make(map[int]*WindowResult),
		memoryWin: -1,
	}
	h.cond = sync.NewCond(&h.mu)
	o := c.Observer()
	sl := []string{"stream", spec.Name}
	h.obsv = o
	h.mIngested = o.Gauge("hurricane_stream_ingested_records", sl...)
	h.mLate = o.Gauge("hurricane_stream_late_records", sl...)
	h.mOpen = o.Gauge("hurricane_stream_open_windows", sl...)
	h.mSealed = o.Counter("hurricane_stream_windows_sealed_total", sl...)
	h.mRetried = o.Counter("hurricane_stream_window_retries_total", sl...)
	h.mWarm = o.Counter("hurricane_stream_warm_starts_total", sl...)
	// Cluster shutdown must unblock source polls and storage waits too.
	go func() {
		select {
		case <-c.PoolDone():
			cancel()
		case <-sctx.Done():
		}
	}()

	srcs := make([]*srcState, 0, len(spec.Sources))
	for _, name := range spec.App.Bags() {
		if src := spec.Sources[name]; src != nil {
			srcs = append(srcs, &srcState{bag: name, src: src, lastActive: time.Now()})
		}
	}
	h.wg.Add(1)
	go h.submitter()
	go h.pump(srcs)
	go func() {
		<-h.pumpDone
		h.wg.Wait()
		h.mu.Lock()
		h.finished = true
		h.cond.Broadcast()
		h.mu.Unlock()
		cancel() // every window job is finished; release the stream context
	}()
	return h, nil
}

// Next blocks until the next window (in index order) has completed and
// returns its result; failed windows are returned with Err set. Once the
// stream has drained and every result was delivered it returns io.EOF —
// or the stream's own error if ingestion itself failed.
func (h *Handle) Next(ctx context.Context) (*WindowResult, error) {
	stop := context.AfterFunc(ctx, func() {
		h.mu.Lock()
		h.cond.Broadcast()
		h.mu.Unlock()
	})
	defer stop()
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		if r := h.results[h.nextDeliver]; r != nil {
			// Delivered results are never re-read; drop the reference so a
			// long-running stream does not pin every window's result (and
			// through res.job, its master state) forever.
			delete(h.results, h.nextDeliver)
			h.nextDeliver++
			return r, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if h.finished {
			if h.pumpErr != nil {
				return nil, h.pumpErr
			}
			return nil, io.EOF
		}
		h.cond.Wait()
	}
}

// Stats snapshots the stream's watermark and window counters.
func (h *Handle) Stats() Stats {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := Stats{
		Watermark:    h.watermark,
		Ingested:     h.ingested,
		Late:         h.lateTotal,
		Open:         len(h.open),
		Sealed:       h.sealedCount,
		InFlight:     len(h.sem),
		Completed:    h.completed,
		Failed:       h.failedCount,
		MemoryWindow: h.memoryWin,
	}
	return st
}

// Drain gracefully ends the stream: ingestion stops, the current partial
// window (and every other still-open window) is sealed and submitted, and
// Drain returns once all in-flight window jobs have completed — only then
// is it safe to tear the cluster down with Shutdown. Results remain
// readable through Next afterwards. Drain returns the stream's ingestion
// error, if any; per-window failures are reported on their WindowResults.
func (h *Handle) Drain(ctx context.Context) error {
	h.mu.Lock()
	h.draining = true
	h.mu.Unlock()
	stop := context.AfterFunc(ctx, func() {
		h.mu.Lock()
		h.cond.Broadcast()
		h.mu.Unlock()
	})
	defer stop()
	h.mu.Lock()
	defer h.mu.Unlock()
	for !h.finished {
		if err := ctx.Err(); err != nil {
			return err
		}
		h.cond.Wait()
	}
	return h.pumpErr
}

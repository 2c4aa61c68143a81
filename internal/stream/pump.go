package stream

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/bag"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/shuffle"
)

// srcState is the pump's bookkeeping for one source: the high-water event
// time it has delivered, when it last delivered anything (for the idle
// timeout), and whether it ended.
type srcState struct {
	bag        string
	src        Source
	wm         int64 // max event time seen; 0 until the first record
	seen       bool
	lastActive time.Time
	eof        bool
}

// bagOut is the append pipeline into one physical bag: the source's
// encoder, flushing into a pipelined inserter.
type bagOut struct {
	name     string
	add      func(i int) error
	closeEnc func() error
	ins      *bag.Inserter
}

func (h *Handle) newBagOut(name string, src Source) *bagOut {
	o := &bagOut{name: name, ins: h.store.Bag(name).Inserter(h.ctx)}
	o.add, o.closeEnc = src.encoder(h.store.ChunkSize(), o.ins.Insert)
	return o
}

func (o *bagOut) close() error {
	if err := o.closeEnc(); err != nil {
		return fmt.Errorf("stream: flushing %s: %w", o.name, err)
	}
	if err := o.ins.Close(); err != nil {
		return fmt.Errorf("stream: closing %s: %w", o.name, err)
	}
	return nil
}

// window is one live or in-flight tumbling window.
type window struct {
	res  *WindowResult
	job  string             // job name == bag namespace prefix
	outs map[string]*bagOut // source bag name -> live append pipeline
}

// ---- ingestion pump (single goroutine) ----

func (h *Handle) pump(srcs []*srcState) {
	defer close(h.submitQ)
	defer close(h.pumpDone)
	for {
		if h.ctx.Err() != nil {
			h.failPump(fmt.Errorf("stream: ingestion stopped: %w", context.Cause(h.ctx)))
			break
		}
		h.mu.Lock()
		draining := h.draining
		h.mu.Unlock()
		if draining {
			break
		}
		progress := false
		live := 0
		for _, s := range srcs {
			if s.eof {
				continue
			}
			live++
			n, err := s.src.poll(h.ctx)
			if err == io.EOF {
				s.eof = true
				continue
			}
			if err != nil {
				if h.ctx.Err() != nil {
					err = fmt.Errorf("stream: ingestion stopped: %w", context.Cause(h.ctx))
				} else {
					err = fmt.Errorf("stream: source %q: %w", s.bag, err)
				}
				h.failPump(err)
				h.drainSeal()
				return
			}
			if n == 0 {
				continue
			}
			progress = true
			s.lastActive = time.Now()
			for i := range n {
				t := s.src.time(i)
				if err := h.ingest(s, i, t); err != nil {
					h.failPump(err)
					h.drainSeal()
					return
				}
				if !s.seen || t > s.wm {
					s.wm, s.seen = t, true
				}
			}
		}
		if err := h.advance(srcs); err != nil {
			h.failPump(err)
			h.drainSeal()
			return
		}
		if live == 0 {
			break
		}
		if !progress {
			select {
			case <-time.After(pollInterval):
			case <-h.ctx.Done():
			}
		}
	}
	h.drainSeal()
}

// flushCounters mirrors the pump-owned ingestion counters into the
// mu-guarded fields Stats reads (and the registry gauges) — once per
// sweep, not per record, so the per-record ingestion path stays free of
// locks and registry traffic.
func (h *Handle) flushCounters() {
	h.mu.Lock()
	h.ingested, h.lateTotal = h.pIngested, h.pLate
	open := len(h.open)
	h.mu.Unlock()
	h.mIngested.Set(h.pIngested)
	h.mLate.Set(h.pLate)
	h.mOpen.Set(int64(open))
}

func (h *Handle) failPump(err error) {
	h.mu.Lock()
	if h.pumpErr == nil {
		h.pumpErr = err
	}
	h.cond.Broadcast()
	h.mu.Unlock()
}

// windowIndex maps an event time to its tumbling window. Records earlier
// than the origin clamp to window 0 (they are late by construction).
func (h *Handle) windowIndex(t int64) int {
	if t <= h.origin {
		return 0
	}
	return int((t - h.origin) / int64(h.spec.Window))
}

// liveWindow returns the open window with the given index, creating it
// (and its result skeleton) if needed. Pump goroutine only.
func (h *Handle) liveWindow(idx int) *window {
	if lw := h.open[idx]; lw != nil {
		return lw
	}
	w := int64(h.spec.Window)
	lw := &window{
		job:  windowJobName(h.spec.Name, idx),
		outs: make(map[string]*bagOut),
		res: &WindowResult{
			Index: idx,
			Start: h.origin + int64(idx)*w,
			End:   h.origin + int64(idx+1)*w,
			h:     h,
		},
	}
	h.mu.Lock()
	h.open[idx] = lw
	h.mu.Unlock()
	return lw
}

// ingest appends the last poll's record i, of event time t, to its
// window's live bag (creating window and pipeline as needed). A record
// whose window already sealed is late: it folds into the lowest open
// window.
func (h *Handle) ingest(s *srcState, i int, t int64) error {
	if !h.originSet {
		h.mu.Lock()
		h.originSet = true
		if h.spec.Origin != 0 {
			h.origin = h.spec.Origin
		} else {
			h.origin = t
		}
		h.mu.Unlock()
	}
	idx := h.windowIndex(t)
	// nextSeal is written only by this goroutine (under mu, for Stats'
	// benefit); reading our own writes needs no lock.
	if idx < h.nextSeal {
		idx = h.nextSeal
		h.pLate++
	}
	lw := h.liveWindow(idx)
	out := lw.outs[s.bag]
	if out == nil {
		out = h.newBagOut(lw.job+"/"+s.bag, s.src)
		lw.outs[s.bag] = out
	}
	if err := out.add(i); err != nil {
		return err
	}
	lw.res.Records++
	h.pIngested++
	return nil
}

// advance recomputes the low watermark over the sources and seals every
// window it has passed. A source that has been idle past idleTimeout (or
// reached EOF) is excluded from the minimum, so a stalled source delays
// nothing; if every remaining source is excluded, the watermark advances
// to the highest time seen — all delivered records are accounted for.
func (h *Handle) advance(srcs []*srcState) error {
	h.flushCounters()
	now := time.Now()
	low := int64(math.MaxInt64)
	high := int64(math.MinInt64)
	anySeen, anyIncluded := false, false
	for _, s := range srcs {
		if s.seen && s.wm > high {
			high, anySeen = s.wm, true
		}
		if s.eof || now.Sub(s.lastActive) > idleTimeout {
			continue
		}
		anyIncluded = true
		if !s.seen {
			return nil // a live source has not spoken yet: no watermark at all
		}
		if s.wm < low {
			low = s.wm
		}
	}
	if !anySeen {
		return nil
	}
	wm := low
	if !anyIncluded {
		wm = high
	}
	h.mu.Lock()
	if wm > h.watermark {
		h.watermark = wm
	}
	wm = h.watermark
	h.mu.Unlock()
	if !h.originSet {
		return nil
	}
	for {
		idx := h.nextSeal // written only by this goroutine
		end := h.origin + int64(idx+1)*int64(h.spec.Window)
		if wm < end {
			return nil
		}
		if err := h.seal(idx); err != nil {
			return err
		}
	}
}

// seal closes window idx's live bags, seals every source bag of the
// window job, and hands the window to the submitter. A window no record
// was routed to completes immediately without a job: one event-time gap
// (a source quiet overnight, a clock-skewed far-future timestamp) may
// pass the watermark over thousands of empty windows, and submitting a
// full DAG job apiece would stall live data behind a flood of no-ops.
func (h *Handle) seal(idx int) error {
	lw := h.liveWindow(idx) // creates an empty window if no record arrived
	empty := lw.res.Records == 0
	if !empty {
		for _, out := range lw.outs {
			if err := out.close(); err != nil {
				return err
			}
		}
		for _, b := range h.spec.App.Bags() {
			if !h.spec.App.BagSpecFor(b).Source {
				continue
			}
			if err := h.store.Seal(h.ctx, lw.job+"/"+b); err != nil {
				return fmt.Errorf("stream: sealing window %d source %s: %w", idx, b, err)
			}
		}
	}
	lw.res.SealedAt = time.Now()
	h.mSealed.Inc()
	h.obsv.Emit(obs.EvWindowSealed, lw.job, lw.job,
		fmt.Sprintf("records=%d empty=%t", lw.res.Records, empty))
	h.mu.Lock()
	delete(h.open, idx)
	h.nextSeal = idx + 1
	h.sealedCount++
	h.mu.Unlock()
	if empty {
		lw.res.SubmittedAt = lw.res.SealedAt
		h.finishWindow(lw, nil)
		return nil
	}
	h.submitQ <- lw
	return nil
}

// drainSeal seals every still-open window up to the highest one holding
// records — the current partial window included — so Drain never strands
// ingested records in an unsealed bag. Gap windows in between (created
// empty) are sealed too, keeping window indices contiguous. Best-effort
// under an aborted context: a failed seal fails the stream, not silently.
func (h *Handle) drainSeal() {
	h.flushCounters()
	h.mu.Lock()
	if !h.originSet {
		h.mu.Unlock()
		return
	}
	maxIdx := h.nextSeal - 1
	for idx, lw := range h.open {
		if lw.res.Records > 0 && idx > maxIdx {
			maxIdx = idx
		}
	}
	start := h.nextSeal
	h.mu.Unlock()
	for idx := start; idx <= maxIdx; idx++ {
		if err := h.seal(idx); err != nil {
			h.failPump(err)
			return
		}
	}
}

// ---- submission and supervision ----

func (h *Handle) submitter() {
	defer h.wg.Done()
	for lw := range h.submitQ {
		select {
		case h.sem <- struct{}{}:
		case <-h.ctx.Done():
			h.finishWindow(lw, fmt.Errorf("stream: window %d not submitted: %w", lw.res.Index, context.Cause(h.ctx)))
			continue
		}
		if err := h.submitWindow(lw); err != nil {
			<-h.sem
			h.finishWindow(lw, err)
			continue
		}
		h.wg.Add(1)
		go h.watch(lw)
	}
}

// submitWindow submits the window job, its shuffle edges warm-started from
// cross-window skew memory: the seeds travel in the submission, which fixes
// them on the window's edges, and a rejected submission writes nothing.
// Submissions are serialized because they all validate the one shared App
// template.
func (h *Handle) submitWindow(lw *window) error {
	lw.res.Attempts++
	if lw.res.SubmittedAt.IsZero() {
		lw.res.SubmittedAt = time.Now()
	}
	h.mu.Lock()
	seeds := h.seeds // replaced whole by captureMemory, never written
	h.mu.Unlock()
	h.submitLock.Lock()
	job, err := h.c.SubmitJob(h.ctx, h.spec.App, core.JobConfig{Name: lw.job, Seeds: seeds})
	h.submitLock.Unlock()
	if err != nil {
		return fmt.Errorf("stream: submitting window %d: %w", lw.res.Index, err)
	}
	lw.res.job = job
	if len(seeds) > 0 {
		lw.res.Seeded = true
		h.mWarm.Inc()
	}
	return nil
}

// watch waits for the window job, retrying failures in place (the reset
// rewinds the sealed sources, so a retry reprocesses exactly the window's
// records). It owns the window's in-flight slot until the terminal
// outcome.
func (h *Handle) watch(lw *window) {
	defer h.wg.Done()
	for {
		select {
		case <-lw.res.job.Done():
		case <-h.c.PoolDone():
			// A Shutdown-stopped master never closes Done; fail the window
			// instead of deadlocking. Its sealed records stay in storage.
			// But a job that completed at the same moment has a real
			// outcome — prefer it over the shutdown error.
			select {
			case <-lw.res.job.Done():
			default:
				<-h.sem
				h.finishWindow(lw, fmt.Errorf("stream: cluster shut down with window %d in flight", lw.res.Index))
				return
			}
		}
		err := lw.res.job.Err()
		if err == nil {
			h.captureMemory(lw)
			<-h.sem
			h.finishWindow(lw, nil)
			return
		}
		if lw.res.Attempts > maxRetries || h.ctx.Err() != nil {
			<-h.sem
			h.finishWindow(lw, err)
			return
		}
		h.mRetried.Inc()
		h.obsv.Emit(obs.EvWindowRetried, lw.job, lw.job,
			fmt.Sprintf("attempt=%d err=%v", lw.res.Attempts, err))
		if rerr := lw.res.job.Reset(h.ctx); rerr != nil {
			<-h.sem
			h.finishWindow(lw, fmt.Errorf("stream: window %d retry reset: %v (job error: %w)", lw.res.Index, rerr, err))
			return
		}
		if serr := h.submitWindow(lw); serr != nil {
			<-h.sem
			h.finishWindow(lw, serr)
			return
		}
	}
}

func (h *Handle) finishWindow(lw *window, err error) {
	lw.res.DoneAt = time.Now()
	lw.res.Err = err
	h.mu.Lock()
	h.results[lw.res.Index] = lw.res
	if err == nil {
		h.completed++
	} else {
		h.failedCount++
	}
	h.cond.Broadcast()
	h.mu.Unlock()
}

// ---- cross-window skew memory ----

// captureMemory turns the finished window's edge records — each edge's
// final partition map and merged statistics, as its master's control
// plane recorded them at the seal — into the seed maps later windows are
// submitted with (shuffle.WarmStart at the default isolate fraction and
// fan), keyed by the template bag name.
func (h *Handle) captureMemory(lw *window) {
	mem := lw.res.job.Master().EdgeMemory()
	if h.spec.ColdStart || len(mem) == 0 {
		return
	}
	seeds := make(map[string]*shuffle.PartitionMap)
	for _, b := range h.spec.App.Bags() {
		spec := h.spec.App.BagSpecFor(b)
		em, ok := mem[lw.res.job.Bag(b)]
		if spec.Partitions <= 0 || !ok {
			continue
		}
		seed := shuffle.WarmStart(em.PMap, em.Stats, b, spec.Partitions, spec.Spread)
		if seed != nil {
			seeds[b] = seed
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if lw.res.Index >= h.memoryWin { // an earlier window finishing late must not regress memory
		h.memoryWin, h.seeds = lw.res.Index, seeds
	}
}

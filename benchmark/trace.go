package main

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/hurricane"
)

// The traced pass records spans from the benchmark's own files, around the
// calls into each layer: the engine itself is not instrumented here (that
// is the in-engine tracing issue that follows), so the layers' self times
// are what an outside caller can see and do not sum to the job wall.

// span is one recorded interval. Calls that happen once per record or per
// batch are coalesced: one span per (task body, call site) whose Start/End
// bracket the first and last timed call and whose Dur is the summed call
// time. Per-record call sites time one burst of calls in rowStride and scale
// the sum up (Sampled says how many were timed): two clock reads cost a
// third of what the row path spends on a record.
type span struct {
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"` // 0 = none
	Name    string `json:"name"`
	Job     int    `json:"job"`
	Start   int64  `json:"start"` // ns since the pass's trace epoch
	End     int64  `json:"end"`
	Dur     int64  `json:"dur"`   // End-Start, or (estimated) summed call time of a coalesced span
	Calls   int64  `json:"calls"` // 1 for a plain span
	Sampled int64  `json:"sampled,omitempty"`
	Bytes   int64  `json:"bytes,omitempty"`
}

func (s *span) coalesced() bool { return s.Sampled > 0 }

// Per-record call sites time rowBurst consecutive calls out of every
// rowStride*rowBurst. Consecutive, because an isolated timed call runs the
// clock code cold and reads tens of ns slow, which rivals the call itself;
// inside a burst the clock cost is steady and is subtracted. The stride is
// odd so successive bursts start on every 64-record offset of the engine's
// power-of-two cadences (map poll 1024, sketch push 4096) equally.
const (
	rowStride = 17
	rowBurst  = 64
)

// tracePass is shared by every traced job of one workload pass: the clock
// epoch, the span-id counter, and the finished jobs' spans.
type tracePass struct {
	epoch time.Time
	ids   atomic.Int32
	jobs  []*jobTrace
	// clockCost is what an empty timed interval reads: it is taken off
	// every coalesced call, whose own duration it would otherwise rival.
	clockCost int64
}

func newTracePass() *tracePass {
	p := &tracePass{epoch: time.Now()}
	// Calibrate on the tracer's own call path: what an empty call reads
	// there is the cost of one clock read as the spans see it. The lowest
	// of a few round means keeps a preempted round out.
	bs := &bodySpans{jt: &jobTrace{pass: p}}
	noop := func(struct{}) error { return nil }
	best := int64(1 << 62)
	for round := 0; round < 8; round++ {
		var a callAcc
		for i := 0; i < 256; i++ {
			_ = call(bs, &a, 1, noop, struct{}{})
		}
		best = min(best, a.Dur/a.Sampled)
	}
	p.clockCost = best
	return p
}

// jobTrace collects one job's spans. The storage tier is built per job, so
// the transport decorators hold their job's trace directly.
type jobTrace struct {
	pass *tracePass
	job  int
	root int32 // the job span: submit -> Wait returns

	// active brackets the timed region; decorator calls outside it (load,
	// collect) pass through unrecorded.
	active atomic.Bool
	// inflight maps an in-proc request to its client span so the handler
	// span can name its cause. Over TCP the request is re-decoded on the
	// server and there is no id on the wire, so handler spans hang off the
	// job span.
	inflight sync.Map

	mu      sync.Mutex
	spans   []span
	chunks  int64   // remove calls that returned a chunk
	retries int64   // calls answered "again"
	loads   []int64 // records consumed per keyed-stage worker body
}

func (p *tracePass) newJob(job int) *jobTrace {
	return &jobTrace{pass: p, job: job, root: p.ids.Add(1)}
}

func (jt *jobTrace) now() int64 { return int64(time.Since(jt.pass.epoch)) }

func (jt *jobTrace) add(s ...span) {
	jt.mu.Lock()
	jt.spans = append(jt.spans, s...)
	jt.mu.Unlock()
}

// begin opens the timed region; end closes it and records the job span.
func (jt *jobTrace) begin() int64 {
	start := jt.now()
	jt.active.Store(true)
	return start
}

func (jt *jobTrace) end(start int64) {
	jt.active.Store(false)
	end := jt.now() // after the region closed, so every kept span ends inside
	jt.add(span{ID: jt.root, Name: "job", Job: jt.job, Start: start, End: end, Dur: end - start, Calls: 1})
}

// ---- task-body spans ----

// bodySpans is one worker body's recorder. It is used by the worker
// goroutine only and committed to the job trace when the body's last
// finish hook has run.
type bodySpans struct {
	jt    *jobTrace
	task  span
	cur   int32 // parent for spans opened now
	reads int64 // clock reads made so far
	accs  []*callAcc
	plain []span
}

// mark is one clock read inside a body, numbered so an interval can be
// charged for the reads it contains.
type mark struct{ t, n int64 }

func (bs *bodySpans) mark() mark {
	bs.reads++
	return mark{bs.jt.now(), bs.reads}
}

// between is the time from a to b net of the tracer's own clock reads in
// that interval — those of nested call sites included, which is what keeps
// a per-record callback from reading longer than the loop around it.
func (bs *bodySpans) between(a, b mark) int64 {
	return max(b.t-a.t-(b.n-a.n)*bs.jt.pass.clockCost, 0)
}

// plainSpan records the interval a..b as a child of parent.
func (bs *bodySpans) plainSpan(id, parent int32, name string, a, b mark) span {
	return span{ID: id, Parent: parent, Name: name, Job: bs.jt.job, Start: a.t, End: b.t, Dur: bs.between(a, b), Calls: 1}
}

// callAcc coalesces the calls made from one site under one parent. A site
// and a site nested 1:1 inside it count calls in step, so they time the
// same calls and the child's estimate never exceeds the parent's.
type callAcc struct{ span }

// skip counts one call and reports whether it goes untimed.
func (a *callAcc) skip(stride int64) bool {
	a.Calls++
	return stride > 1 && (a.Calls-1)%(stride*rowBurst) >= rowBurst
}

func (a *callAcc) add(t0, t1 mark, net int64) {
	if a.Sampled == 0 {
		a.Start = t0.t
	}
	a.End = t1.t
	a.Dur += net
	a.Sampled++
}

func (bs *bodySpans) acc(name string) *callAcc {
	for _, a := range bs.accs {
		if a.Name == name && a.Parent == bs.cur {
			return a
		}
	}
	a := &callAcc{span{ID: bs.jt.pass.ids.Add(1), Parent: bs.cur, Name: name, Job: bs.jt.job}}
	bs.accs = append(bs.accs, a)
	return a
}

// call runs fn(v) as one call of site a, timed unless the site's sampling
// skips it.
func call[V any](bs *bodySpans, a *callAcc, stride int64, fn func(V) error, v V) error {
	if a.skip(stride) {
		return fn(v)
	}
	t0 := bs.mark()
	err := fn(v)
	t1 := bs.mark()
	a.add(t0, t1, bs.between(t0, t1))
	return err
}

// commit scales each sampled site up to all its calls and hands the body's
// spans to the job trace. A scaled-up estimate can overshoot when the timed
// bursts caught more than their share of slow calls (a chunk flush, a
// sleep); it is held to the room left in the span the calls ran in, which
// the true sum cannot exceed.
func (bs *bodySpans) commit() {
	out := append([]span{bs.task}, bs.plain...)
	room := make(map[int32]int64, len(out)+len(bs.accs))
	for _, s := range out {
		room[s.ID] += s.Dur
		room[s.Parent] -= s.Dur
	}
	for _, a := range bs.accs { // parents precede children
		if a.Sampled == 0 {
			continue
		}
		a.Dur = min(int64(float64(a.Dur)*float64(a.Calls)/float64(a.Sampled)), max(room[a.Parent], 0))
		room[a.Parent] -= a.Dur
		room[a.ID] = a.Dur
		out = append(out, a.span)
	}
	bs.jt.add(out...)
}

// task wraps a task body in a span that runs from body entry to the end of
// the body's last finish hook, with a "close" child covering everything
// after the body returned (output flush and the partitioned writer's
// close). jt == nil runs the body bare.
func task(jt *jobTrace, name string, run func(tc *hurricane.TaskCtx, bs *bodySpans) error) hurricane.TaskFunc {
	if jt == nil {
		return func(tc *hurricane.TaskCtx) error { return run(tc, nil) }
	}
	closeName := "hurricane.close"
	if !strings.HasPrefix(name, "apps.") {
		closeName = "plan.close" // inside an opaque planner body
	}
	return func(tc *hurricane.TaskCtx) error {
		bs := &bodySpans{jt: jt}
		id := jt.pass.ids.Add(1)
		bs.cur = id
		start := bs.mark()
		err := run(tc, bs)
		ret := bs.mark()
		finish := func(end mark) {
			bs.task = bs.plainSpan(id, jt.root, name, start, end)
			bs.commit()
		}
		if err != nil {
			finish(ret) // finish hooks do not run for a failed body
			return err
		}
		// Registered after the body's own hooks, so it runs last.
		tc.OnFinish(func() error {
			end := bs.mark()
			bs.plain = append(bs.plain, bs.plainSpan(jt.pass.ids.Add(1), id, closeName, ret, end))
			finish(end)
			return nil
		})
		return nil
	}
}

// forEach is hurricane.ForEach inside a span, with the callback's calls
// coalesced into an "apps.callback" child.
func forEach[T any](bs *bodySpans, tc *hurricane.TaskCtx, in int, codec hurricane.Codec[T], fn func(T) error) error {
	if bs == nil {
		return hurricane.ForEach(tc, in, codec, fn)
	}
	return readLoop(bs, "hurricane.ForEach", rowStride, fn, func(cb func(T) error) error {
		return hurricane.ForEach(tc, in, codec, cb)
	})
}

// forEachBatch is forEach for hurricane.ForEachBatch.
func forEachBatch[T any](bs *bodySpans, tc *hurricane.TaskCtx, in int, codec hurricane.Codec[T], fn func([]T) error) error {
	if bs == nil {
		return hurricane.ForEachBatch(tc, in, codec, fn)
	}
	return readLoop(bs, "hurricane.ForEachBatch", 1, fn, func(cb func([]T) error) error {
		return hurricane.ForEachBatch(tc, in, codec, cb)
	})
}

// readLoop runs one of the engine's read loops inside a plain span and
// coalesces the callback's calls into an "apps.callback" child.
func readLoop[V any](bs *bodySpans, name string, stride int64, fn func(V) error, run func(func(V) error) error) error {
	outer := bs.cur
	id := bs.jt.pass.ids.Add(1)
	bs.cur = id
	cb := bs.acc("apps.callback")
	bs.cur = cb.ID // calls made by the callback are its children
	start := bs.mark()
	err := run(func(v V) error { return call(bs, cb, stride, fn, v) })
	bs.plain = append(bs.plain, bs.plainSpan(id, outer, name, start, bs.mark()))
	bs.cur = outer
	return err
}

// timed wraps one of the engine's write calls so its calls coalesce into a
// span named name under whatever span is open when they happen.
func timed[V any](bs *bodySpans, name string, stride int64, fn func(V) error) func(V) error {
	if bs == nil {
		return fn
	}
	var a *callAcc
	return func(v V) error {
		if a == nil || a.Parent != bs.cur {
			a = bs.acc(name)
		}
		return call(bs, a, stride, fn, v)
	}
}

// ---- analysis ----

// selfTimes returns each span's self time: its duration minus the part its
// children cover. Plain children may run concurrently, so they cover the
// union of their intervals, each counted at its own net-to-raw ratio (body
// spans are net of the tracer's clock reads); a coalesced child covers its
// summed call time.
func selfTimes(spans []span) map[int32]int64 {
	kids := make(map[int32][]*span)
	for i := range spans {
		s := &spans[i]
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int32]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		var covered float64
		var plain []*span
		for _, k := range kids[s.ID] {
			if k.coalesced() {
				covered += float64(k.Dur)
			} else {
				plain = append(plain, k)
			}
		}
		sort.Slice(plain, func(a, b int) bool { return plain[a].Start < plain[b].Start })
		var hi int64 = -1 << 62
		for _, k := range plain {
			lo := max(k.Start, hi)
			if k.End > lo {
				covered += float64(k.End-lo) * float64(k.Dur) / float64(k.End-k.Start)
				hi = k.End
			}
		}
		self[s.ID] = s.Dur - int64(covered)
	}
	return self
}

// selfMetric maps a span name to the per-layer metric its self time counts
// toward ("" for none).
func selfMetric(name string) string {
	switch {
	case strings.HasPrefix(name, "hurricane.ForEach"):
		return "hurricane.read_self_s"
	case strings.HasPrefix(name, "hurricane.Write"), name == "hurricane.close":
		return "hurricane.write_self_s"
	case name == "apps.callback", strings.HasPrefix(name, "apps.task"):
		return "apps.compute_self_s"
	}
	return ""
}

func (jt *jobTrace) addLoad(records int64) {
	jt.mu.Lock()
	jt.loads = append(jt.loads, records)
	jt.mu.Unlock()
}

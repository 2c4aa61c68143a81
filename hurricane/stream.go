package hurricane

import (
	"context"

	"repro/internal/stream"
)

// ---- continuous ingestion (internal/stream) ----
//
// RunStream turns unbounded sources into event-time tumbling windows and
// executes every window as a full DAG job on the multi-job scheduler —
// the micro-batch answer to the streaming dataflow model the paper leaves
// as future work (§3.1). Each window job gets partitioned shuffle edges,
// cloning, and fair-share leasing like any batch job, and consecutive
// windows share skew memory: a finished window's final partition maps and
// merged edge sketches warm-start the next window's partitioner, so
// known-hot keys are pre-isolated instead of rediscovered inside every
// window.
//
//	app := hurricane.NewApp("w").SourceBag("clicks") ... // window DAG
//	h, _ := hurricane.RunStream(ctx, cluster, hurricane.StreamSpec{
//		Name:    "clicks",
//		App:     app,
//		Sources: map[string]hurricane.StreamSource{"clicks": src},
//		Window:  time.Second,
//	})
//	for {
//		w, err := h.Next(ctx)
//		if err != nil { break } // io.EOF after Drain
//		counts, _ := hurricane.Collect(ctx, store, w.Bag("out"), codec)
//		...
//	}
//	_ = h.Drain(ctx) // seal the partial window, wait for in-flight jobs
//	cluster.Shutdown()
//
// A record arriving after its window sealed folds into the lowest open
// window (StreamStats.Late counts them). A failed window job is reset
// (sources rewound, derived bags wiped) and retried without blocking
// successor windows, preserving exactly-once per window.
type (
	// StreamSpec describes a continuous-ingestion stream: the window DAG
	// template, its sources, the window width, and the skew-memory knob.
	StreamSpec = stream.Spec
	// StreamHandle is the caller's grip on a running stream: Next
	// (per-window results in order), Stats (watermark/lag/window
	// counters), Drain (graceful wind-down before Shutdown).
	StreamHandle = stream.Handle
	// StreamSource delivers an unbounded record stream into one source
	// bag of the window application.
	StreamSource = stream.Source
	// StreamRecord is one source record: event time plus encoded payload.
	StreamRecord = stream.Record
	// WindowResult is the outcome of one window: bag name mapping for its
	// outputs, record count, attempts, and timing.
	WindowResult = stream.WindowResult
	// StreamStats snapshots a stream's watermark, lag, and window
	// counters.
	StreamStats = stream.Stats
)

// RunStream starts a continuous-ingestion stream on the cluster. It is
// the streaming analogue of Cluster.Run: where Run executes one sealed
// DAG job, RunStream executes an unbounded sequence of them, one per
// event-time window. Call StreamHandle.Drain before Cluster.Shutdown —
// draining seals the current partial window and waits for in-flight
// window jobs, so no ingested record is stranded unsealed.
func RunStream(ctx context.Context, c *Cluster, spec StreamSpec) (*StreamHandle, error) {
	return stream.Run(ctx, c, spec)
}

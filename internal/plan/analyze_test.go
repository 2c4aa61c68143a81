package plan

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestExplainAnalyzePinned compiles the static join plan and renders
// EXPLAIN ANALYZE against a synthesized profile, pinning the measured
// annotations: per-stage workers/time/rows/bytes lines, per-phase
// breakdowns, the observed-edge line under the join decision, and the
// critical-path footer.
func TestExplainAnalyzePinned(t *testing.T) {
	p := New("j")
	r := Scan(p, "relR", pairCodec)
	s := Scan(p, "relS", pairCodec)
	j := Join(p, r, s, joinSpec())
	p.Sink(j, "out")
	ph, err := Compile(p, Options{Parts: 4, Static: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ph.Joins) != 1 || ph.Joins[0].Strategy != JoinRepartition {
		t.Fatalf("fixture compiled unexpectedly:\n%s", ph.Explain())
	}

	// Synthesize one worker span per physical stage, chained linearly so
	// the critical path covers every stage. 8ms wall each: 1ms queue,
	// 2ms read, 4.5ms compute, 1ms shuffle, 0.5ms finalize.
	var spans []obs.TaskSpans
	deps := map[string][]string{}
	for i, st := range ph.Stages {
		start := int64(1_000_000 + i*10_000_000)
		spans = append(spans, obs.TaskSpans{
			TaskID:     st.Task + "/w0@e0",
			Spec:       st.Task,
			StartedNS:  start,
			EndedNS:    start + 8_000_000,
			QueueNS:    1_000_000,
			ReadNS:     2_000_000,
			ComputeNS:  4_500_000,
			ShuffleNS:  1_000_000,
			FinalizeNS: 500_000,
			BytesIn:    1 << 20,
			BytesOut:   1 << 19,
			Records:    1000,
		})
		if i > 0 {
			deps[st.Task] = []string{ph.Stages[i-1].Task}
		}
	}
	wall := int64(len(ph.Stages)-1)*10_000_000 + 8_000_000
	prof := obs.BuildProfile("j", wall, spans, deps)
	prof.Edges = []obs.EdgeSkew{{
		Edge: ph.Joins[0].Edge, Consumer: ph.Stages[len(ph.Stages)-1].Task,
		P50TaskNS: 8_000_000, MaxTaskNS: 8_000_000, SlowestShare: 0.5,
		Clones: 3,
	}}

	out := ph.ExplainAnalyze(prof)
	for _, want := range []string{
		"plan j (parts=4, static) — analyzed: wall",
		"measured: workers=1 time=8.0ms p50=8.0ms max=8.0ms in=1048576B out=524288B rows=1000",
		"phases:   queue=1.0ms read=2.0ms compute=4.5ms shuffle=1.0ms finalize=0.5ms",
		"observed: p50=8.0ms max=8.0ms slowest=50% clones=3",
		"critical path: ",
		" -> ",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("EXPLAIN ANALYZE missing %q:\n%s", want, out)
		}
	}
	// Every compiled stage line appears with its measured annotation.
	if got, want := strings.Count(out, "measured: workers=1"), len(ph.Stages); got != want {
		t.Fatalf("%d measured stage lines, want %d:\n%s", got, want, out)
	}

	// Without spans (profiling off or no run yet) the annotation degrades
	// per stage rather than erroring.
	empty := ph.ExplainAnalyze(obs.BuildProfile("j", 0, nil, nil))
	if got, want := strings.Count(empty, "measured: (no spans)"), len(ph.Stages); got != want {
		t.Fatalf("%d no-span lines, want %d:\n%s", got, want, empty)
	}
	if strings.Contains(empty, "critical path:") {
		t.Fatalf("empty profile produced a critical path:\n%s", empty)
	}
	// A nil profile (job never ran) must render too.
	if !strings.Contains(ph.ExplainAnalyze(nil), "measured: (no spans)") {
		t.Fatal("nil-profile render")
	}
}

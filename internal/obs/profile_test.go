package obs

import (
	"strings"
	"testing"
)

// span builds a synthetic worker span whose in-worker phases sum exactly
// to its wall time — compute absorbs the remainder, which is the
// invariant the real snapshot path maintains.
func span(spec string, worker int, start, end, queue, read, shuffle, finalize int64, merge bool) TaskSpans {
	return TaskSpans{
		TaskID:     spec + "/w" + string(rune('0'+worker)),
		Spec:       spec,
		Worker:     worker,
		Merge:      merge,
		StartedNS:  start,
		EndedNS:    end,
		QueueNS:    queue,
		ReadNS:     read,
		ComputeNS:  (end - start) - read - shuffle - finalize,
		ShuffleNS:  shuffle,
		FinalizeNS: finalize,
	}
}

// TestBuildProfileCriticalPath assembles a staggered three-stage DAG
// (scan -> shuffle -> agg, each stage starting only after its producer's
// slowest worker finished) and checks stage aggregation, dependency
// ordering, and that the critical path picks exactly the workers that
// bounded each stage.
func TestBuildProfileCriticalPath(t *testing.T) {
	spans := []TaskSpans{
		// scan: w1 is the straggler every consumer waited for.
		span("scan", 0, 1_000, 3_000, 100, 500, 400, 100, false),
		span("scan", 1, 1_000, 5_000, 200, 1_000, 500, 500, false),
		// shuffle: starts at scan's end; w1 again bounds the stage.
		span("shuffle", 0, 5_000, 9_000, 300, 1_000, 1_000, 500, false),
		span("shuffle", 1, 5_200, 12_000, 100, 2_000, 1_000, 800, false),
		// agg: one worker plus its merge; the merge finishes last.
		span("agg", 0, 12_000, 20_000, 400, 3_000, 2_000, 1_000, false),
		span("agg", 1, 20_000, 21_000, 50, 200, 100, 100, true),
	}
	deps := map[string][]string{
		"scan":    {"ghost"}, // producer that recorded no spans: tolerated
		"shuffle": {"scan"},
		"agg":     {"shuffle"},
	}
	const wall = int64(20_000) // job start 1_000, done 21_000
	p := BuildProfile("j", wall, spans, deps)

	if p.Job != "j" || p.WallNS != wall {
		t.Fatalf("header: %+v", p)
	}
	if len(p.Stages) != 3 {
		t.Fatalf("got %d stages, want 3", len(p.Stages))
	}
	// Dependency order, upstream first.
	for i, want := range []string{"scan", "shuffle", "agg"} {
		if p.Stages[i].Task != want {
			t.Fatalf("stage %d = %q, want %q", i, p.Stages[i].Task, want)
		}
	}

	scan := p.Stage("scan")
	if scan.Workers != 2 || scan.Merges != 0 {
		t.Fatalf("scan workers=%d merges=%d", scan.Workers, scan.Merges)
	}
	if scan.WallNS != 4_000 || scan.MaxTaskNS != 4_000 || scan.P50TaskNS != 4_000 {
		t.Fatalf("scan wall=%d p50=%d max=%d", scan.WallNS, scan.P50TaskNS, scan.MaxTaskNS)
	}
	agg := p.Stage("agg")
	if agg.Workers != 1 || agg.Merges != 1 || agg.WallNS != 9_000 {
		t.Fatalf("agg: %+v", agg)
	}
	if p.Stage("nope") != nil {
		t.Fatal("unknown stage lookup must return nil")
	}

	// Every aggregated span keeps the in-worker invariant: phases minus
	// queue sum exactly to the worker's wall time.
	for _, st := range p.Stages {
		for _, s := range st.Tasks {
			if got := s.ReadNS + s.ComputeNS + s.ShuffleNS + s.FinalizeNS; got != s.WallNS() {
				t.Fatalf("%s: in-worker phases sum %d, wall %d", s.TaskID, got, s.WallNS())
			}
		}
	}

	// Critical path: the latest-ending worker of each stage, upstream
	// first — scan/w1, shuffle/w1, then agg's merge.
	wantChain := []struct{ spec, id string }{
		{"scan", "scan/w1"}, {"shuffle", "shuffle/w1"}, {"agg", "agg/w1"},
	}
	if len(p.Critical) != len(wantChain) {
		t.Fatalf("critical path %v", p.Critical)
	}
	var wantNS int64
	for i, w := range wantChain {
		st := p.Critical[i]
		if st.Task != w.spec || st.TaskID != w.id {
			t.Fatalf("critical[%d] = %s (%s), want %s (%s)", i, st.Task, st.TaskID, w.spec, w.id)
		}
		wantNS += st.Phases.TotalNS()
	}
	// The chosen spans: queue+wall = 200+4000, 100+6800, 50+1000.
	if wantNS != 4_200+6_900+1_050 {
		t.Fatalf("chain phase totals sum %d", wantNS)
	}
	if p.CriticalNS != wantNS {
		t.Fatalf("CriticalNS = %d, want %d", p.CriticalNS, wantNS)
	}
	if got := p.CriticalBy.TotalNS(); got != wantNS {
		t.Fatalf("CriticalBy sums to %d, want %d", got, wantNS)
	}

	if r := p.String(); !strings.Contains(r, "critical path") || !strings.Contains(r, "shuffle") {
		t.Fatalf("report: %s", r)
	}
}

// TestBuildProfileEmpty: a job that recorded no spans (profiling off)
// still yields a well-formed, empty profile.
func TestBuildProfileEmpty(t *testing.T) {
	p := BuildProfile("j", 1234, nil, nil)
	if p == nil || p.WallNS != 1234 || len(p.Stages) != 0 || len(p.Critical) != 0 || p.CriticalNS != 0 {
		t.Fatalf("empty profile: %+v", p)
	}
	if (&Profile{}).Stage("x") != nil {
		t.Fatal("Stage on empty profile")
	}
}

package core

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestDebugEndpointsLiveCluster runs two concurrent jobs to completion
// and exercises the debug surface against the live cluster: /metrics
// must expose per-job task counters in text exposition format, and
// /debug/trace must serve the typed event log with working job filters.
func TestDebugEndpointsLiveCluster(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cfg := testClusterConfig()
	cluster, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	const nA, nB = 8000, 6000
	var procA, procB atomic.Int64
	hA, err := cluster.SubmitJob(ctx, sumApp(&procA), JobConfig{Name: "jobA"})
	if err != nil {
		t.Fatal(err)
	}
	hB, err := cluster.SubmitJob(ctx, sumApp(&procB), JobConfig{Name: "jobB"})
	if err != nil {
		t.Fatal(err)
	}
	loadIntsBag(t, ctx, cluster.Store(), hA.Bag("in"), nA)
	loadIntsBag(t, ctx, cluster.Store(), hB.Bag("in"), nB)
	if err := hA.Wait(ctx); err != nil {
		t.Fatalf("jobA: %v", err)
	}
	if err := hB.Wait(ctx); err != nil {
		t.Fatalf("jobB: %v", err)
	}

	srv := httptest.NewServer(cluster.DebugHandler())
	defer srv.Close()
	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	// /metrics: text exposition with per-job labeled series for both jobs.
	body, ct := get("/metrics")
	if !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	for _, want := range []string{
		`hurricane_core_tasks_finished_total{job="jobA"}`,
		`hurricane_core_tasks_finished_total{job="jobB"}`,
		`hurricane_ctrl_snapshots_total{job="jobA"}`,
		`hurricane_sched_lease_grants_total{job="jobB"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing series %q; got:\n%s", want, body)
		}
	}

	// /debug/trace: typed events for both jobs; the job filter narrows.
	body, ct = get("/debug/trace")
	if !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("/debug/trace content type %q", ct)
	}
	var trace struct {
		Dropped uint64      `json:"dropped"`
		Events  []obs.Event `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &trace); err != nil {
		t.Fatalf("/debug/trace not JSON: %v", err)
	}
	jobs := map[string]bool{}
	types := map[obs.EventType]bool{}
	for _, e := range trace.Events {
		jobs[e.Job] = true
		types[e.Type] = true
	}
	if !jobs["jobA"] || !jobs["jobB"] {
		t.Fatalf("trace missing a job's events: %v", jobs)
	}
	if !types[obs.EvTaskScheduled] || !types[obs.EvTaskFinished] {
		t.Fatalf("trace missing lifecycle events: %v", types)
	}
	body, _ = get("/debug/trace?job=jobA&type=TaskFinished")
	var filtered struct {
		Events []obs.Event `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &filtered); err != nil {
		t.Fatal(err)
	}
	if len(filtered.Events) == 0 {
		t.Fatal("job+type filter returned no events")
	}
	for _, e := range filtered.Events {
		if e.Job != "jobA" || e.Type != obs.EvTaskFinished {
			t.Fatalf("filter leak: %+v", e)
		}
	}

	// /debug/skew: well-formed JSON (sumApp has no partitioned edge, so
	// an empty list is the correct answer — not an error).
	body, ct = get("/debug/skew")
	if !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("/debug/skew content type %q", ct)
	}
	var report []SkewEdge
	if err := json.Unmarshal([]byte(body), &report); err != nil {
		t.Fatalf("/debug/skew not JSON: %v", err)
	}

	// JobHandle.Metrics: the job label is stripped and the counts match
	// the per-job series from /metrics.
	mA := hA.Metrics()
	if mA["hurricane_core_tasks_finished_total"] <= 0 {
		t.Fatalf("jobA Metrics missing finished tasks: %v", mA)
	}
	if len(hA.Trace()) == 0 {
		t.Fatal("jobA Trace empty")
	}
	for _, e := range hA.Trace() {
		if e.Job != "jobA" {
			t.Fatalf("jobA trace contains foreign event %+v", e)
		}
	}
}

// TestContinuousTelemetryLiveCluster: the sampler starts with the
// compute pool, records registry series into the time-series recorder,
// evaluates the watchdog rules, and the three telemetry endpoints serve
// it all over the debug mux.
func TestContinuousTelemetryLiveCluster(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cfg := testClusterConfig()
	cfg.SampleInterval = 5 * time.Millisecond
	cluster, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	var proc atomic.Int64
	h, err := cluster.SubmitJob(ctx, sumApp(&proc), JobConfig{Name: "ts"})
	if err != nil {
		t.Fatal(err)
	}
	loadIntsBag(t, ctx, cluster.Store(), h.Bag("in"), 4000)
	if err := h.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	// The sampler runs on its own cadence; give it a few ticks past job
	// completion so the finished-task counters are on the timeline.
	deadline := time.Now().Add(5 * time.Second)
	atDone := cluster.Recorder().Samples() // one may have been in flight
	for cluster.Recorder().Samples() < atDone+3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if cluster.Recorder().Samples() < atDone+3 {
		t.Fatalf("sampler took no samples (got %d)", cluster.Recorder().Samples())
	}

	srv := httptest.NewServer(cluster.DebugHandler())
	defer srv.Close()
	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	// /debug/timeseries: the job's task counter has a sampled history
	// with a derived rate track, and the ?series= filter narrows.
	body, ct := get("/debug/timeseries?series=hurricane_core_tasks_finished_total")
	if !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("/debug/timeseries content type %q", ct)
	}
	var ts struct {
		Samples uint64 `json:"samples"`
		Series  []struct {
			Name    string `json:"name"`
			Counter bool   `json:"counter"`
			Points  []struct {
				TUs int64   `json:"t_us"`
				V   float64 `json:"v"`
			} `json:"points"`
		} `json:"series"`
	}
	if err := json.Unmarshal([]byte(body), &ts); err != nil {
		t.Fatalf("/debug/timeseries not JSON: %v", err)
	}
	if ts.Samples < 3 || len(ts.Series) == 0 {
		t.Fatalf("timeseries = %d samples, %d series", ts.Samples, len(ts.Series))
	}
	found := false
	for _, s := range ts.Series {
		if !strings.Contains(s.Name, "hurricane_core_tasks_finished_total") {
			t.Fatalf("?series= filter leak: %q", s.Name)
		}
		if strings.Contains(s.Name, `job="ts"`) {
			found = true
			if !s.Counter || len(s.Points) == 0 {
				t.Fatalf("bad series %+v", s)
			}
			if last := s.Points[len(s.Points)-1].V; last <= 0 {
				t.Fatalf("finished-task timeline never rose: %+v", s)
			}
		}
	}
	if !found {
		t.Fatalf("no per-job finished-task series in %s", body)
	}

	// /debug/alerts: the built-in rules are loaded and evaluated.
	body, _ = get("/debug/alerts")
	var al obs.Status
	if err := json.Unmarshal([]byte(body), &al); err != nil {
		t.Fatalf("/debug/alerts not JSON: %v", err)
	}
	if al.Evals < 3 {
		t.Fatalf("watchdog evals = %d", al.Evals)
	}
	rules := map[string]bool{}
	for _, r := range al.Rules {
		rules[r.Name] = true
	}
	if !rules["straggler-task-time"] || !rules["shuffle-heat-imbalance"] {
		t.Fatalf("built-in rules missing: %v", rules)
	}

	// /debug/dash: the self-contained dashboard page renders.
	body, ct = get("/debug/dash")
	if !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("/debug/dash content type %q", ct)
	}
	if !strings.Contains(body, "hurricane dash") || !strings.Contains(body, "<canvas") {
		t.Fatal("/debug/dash not the dashboard page")
	}
}

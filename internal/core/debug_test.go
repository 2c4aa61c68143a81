package core

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
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
	loadInts(t, ctx, cluster.Store(), hA.Bag("in"), nA)
	loadInts(t, ctx, cluster.Store(), hB.Bag("in"), nB)
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

// TestTaskSpanHistogramOnMetrics: the straggler signal is the per-job
// task-span histogram on /metrics. Every finished worker observes one span,
// so the histogram counts at least one span per finished task, and its
// quantiles are ordered.
func TestTaskSpanHistogramOnMetrics(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cluster, err := NewCluster(testClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	var proc atomic.Int64
	h, err := cluster.SubmitJob(ctx, sumApp(&proc), JobConfig{Name: "spans"})
	if err != nil {
		t.Fatal(err)
	}
	loadInts(t, ctx, cluster.Store(), h.Bag("in"), 4000)
	if err := h.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	rr := httptest.NewRecorder()
	cluster.DebugHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", rr.Code)
	}
	series := map[string]float64{}
	for _, line := range strings.Split(rr.Body.String(), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("/metrics line %q: %v", line, err)
		}
		series[name] = v
	}
	metric := func(name string) float64 {
		t.Helper()
		v, ok := series[name+`{job="spans"}`]
		if !ok {
			t.Fatalf("/metrics has no %s for job spans", name)
		}
		return v
	}
	count := metric("hurricane_core_task_span_ns_count")
	finished := metric("hurricane_core_tasks_finished_total")
	if count <= 0 || count < finished {
		t.Fatalf("task_span_ns_count = %v, tasks_finished_total = %v", count, finished)
	}
	if p50, p99 := metric("hurricane_core_task_span_ns_p50"), metric("hurricane_core_task_span_ns_p99"); p50 > p99 {
		t.Fatalf("task_span_ns p50 %v > p99 %v", p50, p99)
	}
}

package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/hurricane"
	"repro/hurricane/q"
	"repro/internal/apps"
	"repro/internal/bag"
	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/transport"
	"repro/internal/workload"
)

// Job submissions travel over the same storage transport as everything
// else in Hurricane: a submission is a record inserted into the submit
// control bag, a completion is a record in the done control bag. Any
// client that can reach the storage tier can therefore submit jobs —
// no extra RPC protocol, and a restarted server skips submissions whose
// names already have a completion record in the done bag (both bags
// replay from the start on a fresh scanner).
const (
	submitBag = "sched!submit"
	doneBag   = "sched!done"
)

// jobRequest is a job submission record. Code travels by name, exactly
// like task blueprints: the server instantiates a registered application
// graph (sqsum or groupby) with the requested parameters and generates
// the input data from the given seed workload.
type jobRequest struct {
	Name    string  `json:"name"`             // unique job name (also the bag namespace)
	ID      string  `json:"id"`               // unique per submission; echoed in the result
	Job     string  `json:"job"`              // sqsum | groupby | query
	Records int     `json:"records"`          // input size
	Skew    float64 `json:"skew,omitempty"`   // groupby/query: zipf s
	Parts   int     `json:"parts,omitempty"`  // groupby/query: base shuffle partitions
	Weight  int     `json:"weight,omitempty"` // fair-share weight
	// Trace is the causal trace ID the client minted at submission. The
	// server threads it through JobConfig into the job's trace events and
	// profile, so the client can fetch the remote timeline and EXPLAIN
	// ANALYZE by this ID after completion.
	Trace string `json:"trace,omitempty"`
}

// jobResult is the completion record the server writes to the done bag.
// ID ties it to one submission: clients match on it, so a rejected
// duplicate submission gets its own failure record instead of adopting
// the result of the job that owns the name.
type jobResult struct {
	Name      string `json:"name"`
	ID        string `json:"id,omitempty"`
	OK        bool   `json:"ok"`
	Err       string `json:"err,omitempty"`
	ElapsedMS int64  `json:"elapsedMs"`
	Stats     string `json:"stats,omitempty"`
	// Trace echoes the submission's causal trace ID; Debug advertises
	// the server's bound debug listener ("" when -debug off), which is
	// where the client fetches the job's profile, EXPLAIN ANALYZE, and
	// event timeline by that ID.
	Trace string `json:"trace,omitempty"`
	Debug string `json:"debug,omitempty"`
}

// newSubmissionID returns a random identifier for one submission record.
func newSubmissionID() (string, error) {
	b := make([]byte, 8)
	if _, err := rand.Read(b); err != nil {
		return "", err
	}
	return hex.EncodeToString(b), nil
}

// serve runs the multi-job scheduler against the remote storage tier and
// executes every job submitted through the submit bag, concurrently.
// client, when non-nil, is the TCP storage client carrying the cluster's
// wire traffic; it is bound to the observer so /metrics reports the
// client side of every storage op. debugAddr is the listen address for
// the observability surface (cluster.DebugHandler); "" picks the
// default, "off" disables it.
func serve(ctx context.Context, store *bag.Store, client *transport.TCPClient, computes, slots int, debugAddr string) error {
	o := obs.New(0)
	if client != nil {
		client.Bind(transport.NewMeter(o, "client", "", 0))
	}
	cfg := runConfig(computes, slots)
	cfg.Sched = sched.Config{Interval: 10 * time.Millisecond}
	cfg.Obs = o
	cluster := core.NewClusterOverStore(store, cfg)
	defer cluster.Shutdown()

	boundDebug := ""
	if debugAddr != "off" {
		if debugAddr == "" {
			debugAddr = "127.0.0.1:6066"
		}
		ln, err := net.Listen("tcp", debugAddr)
		if err != nil {
			return fmt.Errorf("serve: debug listener on %s: %w (use -debug off to disable)", debugAddr, err)
		}
		dbg := &http.Server{Handler: cluster.DebugHandler()}
		go func() {
			if err := dbg.Serve(ln); err != nil && err != http.ErrServerClosed {
				fmt.Printf("serve: debug server: %v\n", err)
			}
		}()
		defer func() {
			shctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = dbg.Shutdown(shctx)
		}()
		boundDebug = ln.Addr().String()
		fmt.Printf("hurricane-run: debug surface on http://%s (/metrics /debug/trace /debug/skew /debug/timeseries /debug/alerts /debug/dash /debug/profile/<job> /debug/explain/<job> /debug/pprof/)\n",
			ln.Addr())
	}

	fmt.Printf("hurricane-run: serving job submissions via bag %q (%d compute nodes x %d slots)\n",
		submitBag, computes, slots)
	// Names already completed by a previous server incarnation, or taken
	// by an in-flight job of this one; their submissions are not re-run.
	// answered holds submission IDs that already have a result record
	// (success or rejection), so a restart replays neither.
	taken := map[string]bool{}
	answered := map[string]bool{}
	if _, err := store.Scanner(doneBag).Drain(ctx, func(c chunk.Chunk) error {
		var r jobResult
		if json.Unmarshal(c, &r) == nil {
			taken[r.Name] = true
			if r.ID != "" {
				answered[r.ID] = true
			}
		}
		return nil
	}); err != nil {
		return err
	}
	// reject publishes a failure record for one submission without
	// running it, so the waiting client fails fast instead of tailing
	// the done bag forever (or adopting another job's result by name).
	reject := func(req jobRequest, msg string) {
		fmt.Printf("serve: rejecting submission %q: %s\n", req.Name, msg)
		if req.ID == "" {
			return // pre-ID client; nothing to address the record to
		}
		answered[req.ID] = true
		data, _ := json.Marshal(&jobResult{Name: req.Name, ID: req.ID, Err: msg})
		if err := store.Bag(doneBag).Insert(ctx, data); err != nil {
			fmt.Printf("serve: publishing rejection for %q: %v\n", req.Name, err)
		}
	}
	sc := store.Scanner(submitBag)
	for {
		if _, err := sc.Drain(ctx, func(c chunk.Chunk) error {
			var req jobRequest
			if err := json.Unmarshal(c, &req); err != nil {
				fmt.Printf("serve: ignoring malformed submission: %v\n", err)
				return nil
			}
			if req.ID != "" && answered[req.ID] {
				return nil // replayed submission; its result record stands
			}
			if req.Name == "" {
				fmt.Println("serve: ignoring submission without a name")
				return nil
			}
			// The job's bags live under the "<name>/" namespace and
			// acceptance sweeps that prefix; a slash in the name could
			// nest it inside (or around) a live job's namespace.
			if strings.Contains(req.Name, "/") {
				reject(req, fmt.Sprintf("job name %q must not contain '/'", req.Name))
				return nil
			}
			if taken[req.Name] {
				if req.ID == "" {
					fmt.Printf("serve: skipping job %q (already completed or in flight)\n", req.Name)
					return nil
				}
				reject(req, fmt.Sprintf("job name %q is already taken on this storage tier; pick a fresh -name", req.Name))
				return nil
			}
			taken[req.Name] = true
			fmt.Printf("serve: accepted job %q (%s, %d records)\n", req.Name, req.Job, req.Records)
			go runServedJob(ctx, cluster, store, req, boundDebug)
			return nil
		}); err != nil {
			return err
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// runServedJob executes one submitted job end-to-end: submit (which
// reserves the namespace), generate and load the input, wait, verify,
// and publish the result record.
func runServedJob(ctx context.Context, cluster *core.Cluster, store *bag.Store, req jobRequest, debugAddr string) {
	start := time.Now()
	res := jobResult{Name: req.Name, ID: req.ID, Trace: req.Trace, Debug: debugAddr}
	err := func() error {
		// A submission replayed after a server crash may have left a
		// partial namespace behind (sealed inputs, half-written
		// intermediates); sweep it so the re-run starts clean. For a
		// fresh submission this is a cheap no-op.
		if err := store.DeletePrefix(ctx, req.Name+"/"); err != nil {
			return err
		}
		switch req.Job {
		case "sqsum":
			return runServedSqsum(ctx, cluster, store, req, &res)
		case "groupby":
			return runServedGroupBy(ctx, cluster, store, req, &res)
		case "query":
			return runServedQuery(ctx, cluster, store, req, &res)
		default:
			return fmt.Errorf("unknown job kind %q (want sqsum, groupby, or query)", req.Job)
		}
	}()
	res.ElapsedMS = time.Since(start).Milliseconds()
	if err != nil {
		res.Err = err.Error()
	} else {
		res.OK = true
	}
	data, _ := json.Marshal(&res)
	if err := store.Bag(doneBag).Insert(ctx, data); err != nil {
		fmt.Printf("serve: publishing result for %q: %v\n", req.Name, err)
	}
	fmt.Printf("serve: job %q finished ok=%v in %dms\n", req.Name, res.OK, res.ElapsedMS)
}

func runServedSqsum(ctx context.Context, cluster *core.Cluster, store *bag.Store, req jobRequest, res *jobResult) error {
	n := req.Records
	if n <= 0 {
		n = 100000
	}
	h, err := cluster.SubmitJob(ctx, apps.SquareSumApp(), core.JobConfig{Name: req.Name, Weight: req.Weight, TraceID: req.Trace})
	if err != nil {
		return err
	}
	nums := make([]int64, n)
	var want int64
	for i := range nums {
		nums[i] = int64(i)
		want += int64(i) * int64(i)
	}
	if err := hurricane.Load(ctx, store, h.Bag(apps.SquareSumIn), hurricane.Int64Of, nums); err != nil {
		return err
	}
	if err := hurricane.Seal(ctx, store, h.Bag(apps.SquareSumIn)); err != nil {
		return err
	}
	if err := h.Wait(ctx); err != nil {
		return err
	}
	totals, err := hurricane.Collect(ctx, store, h.Bag(apps.SquareSumOut), hurricane.Int64Of)
	if err != nil {
		return err
	}
	var got int64
	for _, v := range totals {
		got += v
	}
	if got != want {
		return fmt.Errorf("verification failed: sum %d, want %d", got, want)
	}
	res.Stats = fmt.Sprintf("%+v", h.Stats())
	return nil
}

func runServedGroupBy(ctx context.Context, cluster *core.Cluster, store *bag.Store, req jobRequest, res *jobResult) error {
	n, parts := req.Records, req.Parts
	if n <= 0 {
		n = 100000
	}
	if parts <= 0 {
		parts = 4
	}
	tuples := workload.ZipfTuples(n, 64, req.Skew, 9)
	want := workload.KeyCounts(tuples)
	app := apps.GroupByApp(parts, true, false, 0, 0)
	h, err := cluster.SubmitJob(ctx, app, core.JobConfig{Name: req.Name, Weight: req.Weight, TraceID: req.Trace})
	if err != nil {
		return err
	}
	if err := apps.LoadGroupByInto(ctx, store, h.Bag(apps.GroupByIn), tuples); err != nil {
		return err
	}
	if err := h.Wait(ctx); err != nil {
		return err
	}
	got, err := apps.CollectGroupByFrom(ctx, store, h.Bag(apps.GroupByOut))
	if err != nil {
		return err
	}
	if len(got) != len(want) {
		return fmt.Errorf("verification failed: %d keys, want %d", len(got), len(want))
	}
	for k, c := range want {
		if got[k].Count != c {
			return fmt.Errorf("verification failed: key %d count %d, want %d", k, got[k].Count, c)
		}
	}
	res.Stats = fmt.Sprintf("%+v", h.Stats())
	return nil
}

// runServedQuery executes the planner-compiled groupby (apps.GroupByPlan)
// as a served job. Unlike the hand-wired kinds it carries a physical
// plan, so it registers the plan's EXPLAIN ANALYZE renderer on the job
// handle — which is what /debug/explain serves, and what a remote
// submitter fetches by trace ID. Results are verified against the same
// oracle collector as the hand-wired groupby (the sink bag is
// byte-compatible by construction).
func runServedQuery(ctx context.Context, cluster *core.Cluster, store *bag.Store, req jobRequest, res *jobResult) error {
	n, parts := req.Records, req.Parts
	if n <= 0 {
		n = 100000
	}
	if parts <= 0 {
		parts = 4
	}
	tuples := workload.ZipfTuples(n, 64, req.Skew, 9)
	want := workload.KeyCounts(tuples)
	compiled, err := apps.GroupByPlan().Compile(q.Options{
		Parts: parts,
	})
	if err != nil {
		return err
	}
	h, err := compiled.Submit(ctx, cluster, core.JobConfig{Name: req.Name, Weight: req.Weight, TraceID: req.Trace})
	if err != nil {
		return err
	}
	h.SetExplain(compiled.ExplainAnalyze)
	if err := apps.LoadGroupByInto(ctx, store, h.Bag(apps.GroupByIn), tuples); err != nil {
		return err
	}
	if err := h.Wait(ctx); err != nil {
		return err
	}
	got, err := apps.CollectGroupByFrom(ctx, store, h.Bag(compiled.SinkBag(apps.GroupByOut)))
	if err != nil {
		return err
	}
	if len(got) != len(want) {
		return fmt.Errorf("verification failed: %d keys, want %d", len(got), len(want))
	}
	for k, c := range want {
		if got[k].Count != c {
			return fmt.Errorf("verification failed: key %d count %d, want %d", k, got[k].Count, c)
		}
	}
	res.Stats = fmt.Sprintf("%+v", h.Stats())
	return nil
}

// submitAndWait is the client side of -serve: stamp the request with a
// unique submission ID, insert it, then tail the done bag until the
// server answers this submission (matched by ID, so a duplicate name
// yields an explicit rejection record rather than silently adopting the
// earlier job's result). Job names are single-use per storage tier; a
// name that already has a completion record is rejected locally before
// the insert.
func submitAndWait(ctx context.Context, store *bag.Store, req jobRequest) error {
	if strings.Contains(req.Name, "/") {
		return fmt.Errorf("job name %q must not contain '/'", req.Name)
	}
	duplicate := false
	if _, err := store.Scanner(doneBag).Drain(ctx, func(c chunk.Chunk) error {
		var r jobResult
		if json.Unmarshal(c, &r) == nil && r.Name == req.Name {
			duplicate = true
		}
		return nil
	}); err != nil {
		return err
	}
	if duplicate {
		return fmt.Errorf("job name %q was already used on this storage tier; pick a fresh -name", req.Name)
	}
	id, err := newSubmissionID()
	if err != nil {
		return err
	}
	req.ID = id
	// The causal trace ID: minted here, carried in the submission record
	// over the storage wire, threaded by the server through JobConfig into
	// every trace event and the execution profile of the remote job. After
	// completion it keys the fetch of the remote timeline and EXPLAIN
	// ANALYZE from the server's debug endpoint.
	trace, err := newSubmissionID()
	if err != nil {
		return err
	}
	req.Trace = "t-" + trace
	data, err := json.Marshal(&req)
	if err != nil {
		return err
	}
	if err := store.Bag(submitBag).Insert(ctx, data); err != nil {
		return err
	}
	fmt.Printf("submitted job %q (%s) trace=%s; waiting for completion...\n", req.Name, req.Job, req.Trace)
	sc := store.Scanner(doneBag)
	for {
		var found *jobResult
		if _, err := sc.Drain(ctx, func(c chunk.Chunk) error {
			var r jobResult
			if json.Unmarshal(c, &r) == nil && r.ID == req.ID {
				found = &r
			}
			return nil
		}); err != nil {
			return err
		}
		if found != nil {
			fmt.Printf("job %q: ok=%v elapsed=%dms stats=%s err=%s\n",
				found.Name, found.OK, found.ElapsedMS, found.Stats, found.Err)
			if !found.OK {
				return fmt.Errorf("job %q failed: %s", found.Name, found.Err)
			}
			fetchRemoteDebug(ctx, found.Debug, req.Trace)
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(200 * time.Millisecond):
		}
	}
}

// fetchRemoteDebug pulls the completed job's observability across the
// process boundary: the EXPLAIN ANALYZE text, the execution profile
// summary, and the decision-event timeline, all resolved by the causal
// trace ID on the serving process's debug endpoint. Best-effort — the
// job already succeeded; an unreachable debug surface (server on
// another host, or -debug off) costs the report, not the run.
func fetchRemoteDebug(ctx context.Context, debugAddr, trace string) {
	if debugAddr == "" || trace == "" {
		return
	}
	get := func(path string) ([]byte, bool) {
		url := "http://" + debugAddr + path
		rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		hreq, err := http.NewRequestWithContext(rctx, http.MethodGet, url, nil)
		if err != nil {
			return nil, false
		}
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			fmt.Printf("remote debug %s unreachable: %v\n", url, err)
			return nil, false
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			fmt.Printf("remote debug %s: status %s\n", url, resp.Status)
			return nil, false
		}
		return body, true
	}
	if body, ok := get("/debug/explain/?trace=" + trace); ok {
		fmt.Printf("\nremote EXPLAIN ANALYZE (trace=%s via %s):\n%s", trace, debugAddr, body)
	}
	if body, ok := get("/debug/profile/?trace=" + trace); ok {
		var p obs.Profile
		if json.Unmarshal(body, &p) == nil {
			fmt.Printf("\nremote profile:\n%s", p.String())
		}
	}
	if body, ok := get("/debug/trace?trace=" + trace); ok {
		var tl struct {
			Events []obs.Event `json:"events"`
		}
		if json.Unmarshal(body, &tl) == nil {
			fmt.Printf("remote timeline: %d events stamped trace=%s\n", len(tl.Events), trace)
			for _, e := range tl.Events {
				fmt.Printf("  %8dus %-18s %-24s %s\n", e.TMicros, e.Type, e.Subject, e.Detail)
			}
		}
	}
}

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
	"net/url"
	"strings"
	"sync"
	"time"

	"repro/internal/bag"
	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/transport"
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
// client is the TCP storage client carrying the cluster's wire traffic;
// it is bound to the observer so /metrics reports the client side of
// every storage op. debugAddr is the listen address for the
// observability surface (cluster.DebugHandler); "off" disables it.
func serve(ctx context.Context, store *bag.Store, client *transport.TCPClient, computes, slots int, debugAddr string) error {
	o := obs.New(0)
	client.Bind(transport.NewMeter(o, "client", "", 0))
	cfg := runConfig(computes, slots)
	cfg.Obs = o
	cluster := core.NewClusterOverStore(store, cfg)
	defer cluster.Shutdown()

	boundDebug := ""
	if debugAddr != "off" {
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
		fmt.Printf("hurricane-run: debug surface on http://%s (/metrics /debug/trace /debug/skew /debug/profile/<job> /debug/explain/<job> /debug/pprof/)\n",
			ln.Addr())
	}

	fmt.Printf("hurricane-run: serving job submissions via bag %q (%d compute nodes x %d slots)\n",
		submitBag, computes, slots)
	srv := &server{cluster: cluster, debug: boundDebug}
	var running sync.WaitGroup
	defer func() {
		// ctx is done on a clean exit; the release must outlive it.
		running.Wait()
		rctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), time.Minute)
		defer cancel()
		srv.retain(rctx, nil, 0)
	}()
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
			// runJob sweeps that prefix; a slash in the name could
			// nest it inside (or around) a live job's namespace.
			if strings.Contains(req.Name, "/") {
				reject(req, fmt.Sprintf("job name %q must not contain '/'", req.Name))
				return nil
			}
			if taken[req.Name] {
				reject(req, fmt.Sprintf("job name %q is already taken on this storage tier; pick a fresh -name", req.Name))
				return nil
			}
			taken[req.Name] = true
			fmt.Printf("serve: accepted job %q (%s, %d records)\n", req.Name, req.Job, req.Records)
			running.Add(1)
			go func() {
				defer running.Done()
				srv.run(ctx, req)
			}()
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

// keptJobs is how many finished served jobs stay registered, bags and
// all, so that /debug/profile/<job> and /debug/explain/<job> still answer
// when the submitter fetches them after reading the result record.
const keptJobs = 8

// server runs the jobs submitted to a -serve process on one cluster. It
// keeps the newest keptJobs finished jobs and discards the oldest kept
// job as each newer one finishes.
type server struct {
	cluster *core.Cluster
	debug   string // the bound debug listener, advertised in each result

	mu   sync.Mutex
	kept []*core.JobHandle // finished jobs, oldest first
}

// run executes one submission end to end and publishes its result record.
func (s *server) run(ctx context.Context, req jobRequest) {
	h, res := runJob(ctx, s.cluster, req)
	res.Debug = s.debug
	s.retain(ctx, h, keptJobs)
	data, _ := json.Marshal(&res)
	if err := s.cluster.Store().Bag(doneBag).Insert(ctx, data); err != nil {
		fmt.Printf("serve: publishing result for %q: %v\n", req.Name, err)
	}
	fmt.Printf("serve: %v\n", res)
}

// retain adds h, when it is a finished job, to the kept jobs and discards
// all but the newest n of them. A job still running (its runner gave up
// on it) cannot be released and is not kept.
func (s *server) retain(ctx context.Context, h *core.JobHandle, n int) {
	s.mu.Lock()
	if h != nil {
		select {
		case <-h.Done():
			s.kept = append(s.kept, h)
		default:
		}
	}
	var old []*core.JobHandle
	if k := len(s.kept) - n; k > 0 {
		old, s.kept = s.kept[:k], s.kept[k:]
	}
	s.mu.Unlock()
	for _, h := range old {
		if err := h.Discard(ctx); err != nil {
			fmt.Printf("serve: discarding job %q: %v\n", h.ID(), err)
		}
	}
}

// submitAndWait is the client side of -serve: stamp the request with a
// unique submission ID, insert it, then tail the done bag until the
// server answers this submission (matched by ID, so a duplicate name
// yields an explicit rejection record rather than silently adopting the
// earlier job's result). Job names are single-use per storage tier: the
// server rejects a name that already has a completion record.
func submitAndWait(ctx context.Context, store *bag.Store, req jobRequest) error {
	id, err := newSubmissionID()
	if err != nil {
		return err
	}
	req.ID = id
	data, err := json.Marshal(&req)
	if err != nil {
		return err
	}
	if err := store.Bag(submitBag).Insert(ctx, data); err != nil {
		return err
	}
	fmt.Printf("submitted job %q (%s); waiting for completion...\n", req.Name, req.Job)
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
			fmt.Println(found)
			if !found.OK {
				return fmt.Errorf("job %q failed: %s", found.Name, found.Err)
			}
			fetchRemoteDebug(ctx, found.Debug, req.Name)
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
// summary, and the decision-event timeline, all fetched by the job's
// name from the serving process's debug endpoint — the server runs the
// job under the name the client submitted. Best-effort — the job already
// succeeded; an unreachable debug surface (server on another host, or
// -debug off) costs the report, not the run.
func fetchRemoteDebug(ctx context.Context, debugAddr, job string) {
	if debugAddr == "" {
		return
	}
	get := func(path string) ([]byte, bool) {
		target := "http://" + debugAddr + path
		rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		hreq, err := http.NewRequestWithContext(rctx, http.MethodGet, target, nil)
		if err != nil {
			return nil, false
		}
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			fmt.Printf("remote debug %s unreachable: %v\n", target, err)
			return nil, false
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			fmt.Printf("remote debug %s: status %s\n", target, resp.Status)
			return nil, false
		}
		return body, true
	}
	if body, ok := get("/debug/explain/" + url.PathEscape(job)); ok {
		fmt.Printf("\nremote EXPLAIN ANALYZE (job %q via %s):\n%s", job, debugAddr, body)
	}
	if body, ok := get("/debug/profile/" + url.PathEscape(job)); ok {
		var p obs.Profile
		if json.Unmarshal(body, &p) == nil {
			fmt.Printf("\nremote profile:\n%s", p.String())
		}
	}
	if body, ok := get("/debug/trace?job=" + url.QueryEscape(job)); ok {
		var tl struct {
			Events []obs.Event `json:"events"`
		}
		if json.Unmarshal(body, &tl) == nil {
			fmt.Printf("remote timeline: %d events of job %q\n", len(tl.Events), job)
			for _, e := range tl.Events {
				fmt.Printf("  %8dus %-18s %-24s %s\n", e.TMicros, e.Type, e.Subject, e.Detail)
			}
		}
	}
}

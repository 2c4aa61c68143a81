package main

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"
	"time"

	"repro/hurricane"
	"repro/hurricane/q"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/workload"
)

// jobRequest is one job, built from the flags or sent by a -submit client
// as a record in the submit bag. Code travels by name, like task
// blueprints: the runner builds the kind's graph and generates its input.
type jobRequest struct {
	Name    string  `json:"name"`             // unique job name (also the bag namespace)
	ID      string  `json:"id"`               // unique per submission; echoed in the result
	Job     string  `json:"job"`              // a key of jobKinds
	Records int     `json:"records"`          // input size
	Skew    float64 `json:"skew,omitempty"`   // zipf s
	Parts   int     `json:"parts,omitempty"`  // base shuffle partitions
	Weight  int     `json:"weight,omitempty"` // fair-share weight
}

// config is the submission of req's job: namespaced under its name.
func (req jobRequest) config() core.JobConfig {
	return core.JobConfig{Name: req.Name, Weight: req.Weight}
}

// jobResult reports one job: the line a direct run prints and the
// completion record a -serve process writes to the done bag. ID ties it
// to one submission: clients match on it, so a rejected duplicate
// submission gets its own failure record instead of adopting the result
// of the job that owns the name.
type jobResult struct {
	Name      string `json:"name"`
	ID        string `json:"id,omitempty"`
	OK        bool   `json:"ok"`
	Err       string `json:"err,omitempty"`
	Summary   string `json:"summary,omitempty"`
	ElapsedMS int64  `json:"elapsedMs"`
	Stats     string `json:"stats,omitempty"`
	// Debug is the server's bound debug listener ("" when -debug off),
	// where the client fetches the job's pages by the job's name.
	Debug string `json:"debug,omitempty"`
}

func (r jobResult) String() string {
	return fmt.Sprintf("job %q: ok=%v elapsed=%dms %s stats=%s err=%s",
		r.Name, r.OK, r.ElapsedMS, r.Summary, r.Stats, r.Err)
}

// jobKinds is every job hurricane-run runs, the same in every mode. Each
// generates req's input and its serial answer, submits the job under
// req.Name, loads and collects through the handle's bag names, and
// verifies. It returns the handle once submitted, for the caller to
// release, and a summary of the verified result.
var jobKinds = map[string]func(context.Context, *core.Cluster, jobRequest) (*core.JobHandle, string, error){
	"sqsum":    sqsumJob,
	"clicklog": clickLogJob,
	"groupby":  groupByJob,
	"query":    queryJob,
	"join":     joinJob,
}

// kindNames lists the -job values.
func kindNames() string {
	return strings.Join(slices.Sorted(maps.Keys(jobKinds)), " | ")
}

// runJob runs req with its defaults filled in, in an empty namespace (a
// run of the same name that died mid-job, such as a crashed server's
// replayed submission, may have left sealed inputs behind). The handle is
// nil when the job was never submitted.
func runJob(ctx context.Context, c *core.Cluster, req jobRequest) (*core.JobHandle, jobResult) {
	if req.Records <= 0 {
		req.Records = 100000
	}
	if req.Parts <= 0 {
		req.Parts = 4
	}
	start := time.Now()
	res := jobResult{Name: req.Name, ID: req.ID}
	var h *core.JobHandle
	var err error
	if kind, ok := jobKinds[req.Job]; !ok {
		err = fmt.Errorf("unknown job kind %q (want %s)", req.Job, kindNames())
	} else if err = c.Store().DeletePrefix(ctx, req.Name+"/"); err == nil {
		h, res.Summary, err = kind(ctx, c, req)
	}
	res.ElapsedMS = time.Since(start).Milliseconds()
	res.OK = err == nil
	if err != nil {
		res.Err = err.Error()
	}
	if h != nil {
		res.Stats = fmt.Sprintf("%+v", h.Stats())
	}
	return h, res
}

// sqsumJob sums the squares of 0..n-1 (apps.SquareSumApp).
func sqsumJob(ctx context.Context, c *core.Cluster, req jobRequest) (*core.JobHandle, string, error) {
	nums := make([]int64, req.Records)
	var want int64
	for i := range nums {
		nums[i] = int64(i)
		want += int64(i) * int64(i)
	}
	h, err := c.SubmitJob(ctx, apps.SquareSumApp(), req.config())
	if err != nil {
		return nil, "", err
	}
	store, in := c.Store(), h.Bag(apps.SquareSumIn)
	if err := hurricane.Load(ctx, store, in, hurricane.Int64Of, nums); err != nil {
		return h, "", err
	}
	if err := hurricane.Seal(ctx, store, in); err != nil {
		return h, "", err
	}
	if err := h.Wait(ctx); err != nil {
		return h, "", err
	}
	totals, err := hurricane.Collect(ctx, store, h.Bag(apps.SquareSumOut), hurricane.Int64Of)
	if err != nil {
		return h, "", err
	}
	var got int64
	for _, v := range totals {
		got += v
	}
	if got != want {
		return h, "", fmt.Errorf("verification failed: sum %d, want %d", got, want)
	}
	return h, fmt.Sprintf("sum of %d squares %d", len(nums), got), nil
}

// clickLogJob counts the distinct IPs of each region in a Zipf click log
// (apps.ClickLogApp, the paper's §2.1 application).
func clickLogJob(ctx context.Context, c *core.Cluster, req jobRequest) (*core.JobHandle, string, error) {
	const regions, hostBits = 16, 12
	gen := workload.ClickLogGen{S: req.Skew, Regions: regions, UniquePerRegion: 1 << hostBits, Seed: 42}
	ips := gen.Generate(req.Records)
	want := workload.DistinctPerRegion(ips, regions)
	h, err := c.SubmitJob(ctx, apps.ClickLogApp(regions, hostBits, false), req.config())
	if err != nil {
		return nil, "", err
	}
	if err := apps.LoadClickLog(ctx, c.Store(), h.Bag(apps.ClickLogBagIn), ips); err != nil {
		return h, "", err
	}
	if err := h.Wait(ctx); err != nil {
		return h, "", err
	}
	got, err := apps.ClickLogCounts(ctx, c.Store(), h.Bag, regions)
	if err != nil {
		return h, "", err
	}
	for r := range want {
		if got[r] != want[r] {
			return h, "", fmt.Errorf("verification failed: region %s: got %d distinct, want %d",
				workload.RegionName(r), got[r], want[r])
		}
	}
	return h, fmt.Sprintf("%d regions correct", regions), nil
}

// groupByJob runs the hand-wired skew-aware shuffle groupby
// (apps.GroupByApp): partitioned bags, producer sketches and clones of
// hot-partition consumers.
func groupByJob(ctx context.Context, c *core.Cluster, req jobRequest) (*core.JobHandle, string, error) {
	h, err := c.SubmitJob(ctx, apps.GroupByApp(req.Parts, true, 0, 0), req.config())
	if err != nil {
		return nil, "", err
	}
	return checkedGroupBy(ctx, c, h, req, apps.GroupByOut)
}

// queryJob runs the planner-compiled groupby (apps.GroupByPlan). It
// carries a physical plan, so its EXPLAIN ANALYZE is what
// /debug/explain/<job> serves. Its sink has the hand-wired groupby's
// layout, so the same collector and serial groupby check it.
func queryJob(ctx context.Context, c *core.Cluster, req jobRequest) (*core.JobHandle, string, error) {
	plan, err := apps.GroupByPlan().Compile(q.Options{Parts: req.Parts})
	if err != nil {
		return nil, "", err
	}
	h, err := plan.Submit(ctx, c, req.config())
	if err != nil {
		return nil, "", err
	}
	h.SetExplain(plan.ExplainAnalyze)
	return checkedGroupBy(ctx, c, h, req, plan.SinkBag(apps.GroupByOut))
}

// checkedGroupBy finishes both groupby kinds once h is submitted: it loads
// req's Zipf tuples into the job's input, waits, and checks what the job
// wrote to out against the serial groupby.
func checkedGroupBy(ctx context.Context, c *core.Cluster, h *core.JobHandle, req jobRequest, out string) (*core.JobHandle, string, error) {
	tuples := workload.ZipfTuples(req.Records, 64, req.Skew, 9)
	if err := apps.LoadGroupBy(ctx, c.Store(), h.Bag(apps.GroupByIn), tuples); err != nil {
		return h, "", err
	}
	if err := h.Wait(ctx); err != nil {
		return h, "", err
	}
	got, err := apps.CollectGroupBy(ctx, c.Store(), h.Bag(out))
	if err != nil {
		return h, "", err
	}
	if err := checkGroupBy(got, tuples); err != nil {
		return h, "", fmt.Errorf("verification failed: %w", err)
	}
	return h, fmt.Sprintf("%d keys", len(got)), nil
}

// checkGroupBy compares a groupby's merged result with the serial groupby
// of its input, counts and distinct estimates exactly, and names the first
// key (in key order) that differs.
func checkGroupBy(got map[uint64]apps.GroupByResult, tuples []workload.Tuple) error {
	want := apps.SerialGroupBy(tuples)
	if len(got) != len(want) {
		return fmt.Errorf("%d keys, want %d", len(got), len(want))
	}
	for _, k := range slices.Sorted(maps.Keys(want)) {
		if g, ok := got[k]; !ok || g != want[k] {
			return fmt.Errorf("key %d: got %+v, want %+v", k, g, want[k])
		}
	}
	return nil
}

// joinJob runs the planner-compiled hash join (apps.HashJoinPlan, the
// paper's §5.3). The planner fuses the join into the probe scan, every
// worker reading the build relation, so clones split a skewed probe
// chunk by chunk.
func joinJob(ctx context.Context, c *core.Cluster, req jobRequest) (*core.JobHandle, string, error) {
	keys := max(req.Records/12, 1024)
	r := workload.SeqRelation(keys, 41)
	s := workload.ZipfTuples(req.Records, keys, req.Skew, 43)
	want := workload.JoinMatches(r, s)
	plan, err := apps.HashJoinPlan().Compile(q.Options{Parts: req.Parts})
	if err != nil {
		return nil, "", err
	}
	h, err := plan.Submit(ctx, c, req.config())
	if err != nil {
		return nil, "", err
	}
	h.SetExplain(plan.ExplainAnalyze)
	store := c.Store()
	if err := apps.LoadRelations(ctx, store, h.Bag(apps.JoinBagR), h.Bag(apps.JoinBagS), r, s); err != nil {
		return h, "", err
	}
	if err := h.Wait(ctx); err != nil {
		return h, "", err
	}
	ms, err := hurricane.Collect(ctx, store, h.Bag(plan.SinkBag(apps.JoinShufOut)), apps.MatchCodec)
	if err != nil {
		return h, "", err
	}
	got := make([]workload.Match, len(ms))
	for i, m := range ms {
		got[i] = workload.Match{Key: m.First, R: m.Second.First, S: m.Second.Second}
	}
	workload.SortMatches(got)
	if !slices.Equal(got, want) {
		return h, "", fmt.Errorf("verification failed: %d matches differ from the serial join's %d", len(got), len(want))
	}
	return h, fmt.Sprintf("%d matches (%s join)", len(got), plan.Joins[0].Strategy), nil
}

package core

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ctrl"
)

func nop(tc *TaskCtx) error { return nil }

func TestValidateHappyPath(t *testing.T) {
	app := NewApp("ok")
	app.SourceBag("src").Bag("mid").Bag("out")
	app.AddTask(TaskSpec{Name: "a", Inputs: []string{"src"}, Outputs: []string{"mid"}, Run: nop})
	app.AddTask(TaskSpec{Name: "b", Inputs: []string{"mid"}, Outputs: []string{"out"}, Run: nop, Merge: nop})
	if err := app.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := app.Producers("mid"); len(got) != 1 || got[0] != "a" {
		t.Fatalf("producers(mid) = %v", got)
	}
	if got := app.Consumers("mid"); len(got) != 1 || got[0] != "b" {
		t.Fatalf("consumers(mid) = %v", got)
	}
	if len(app.sourceBags()) != 1 {
		t.Fatalf("source bags %v", app.sourceBags())
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name  string
		build func() *App
		want  string
	}{
		{"bag declared twice", func() *App {
			a := NewApp("x").SourceBag("s").Bag("o").AddBag(BagSpec{Name: "o", Partitions: 4})
			a.AddTask(TaskSpec{Name: "t", Inputs: []string{"s"}, Outputs: []string{"o"}, Run: nop})
			return a
		}, `bag "o" declared twice`},
		{"task declared twice", func() *App {
			a := NewApp("x").SourceBag("s").Bag("o")
			a.AddTask(TaskSpec{Name: "t", Inputs: []string{"s"}, Outputs: []string{"o"}, Run: nop})
			a.AddTask(TaskSpec{Name: "t", Inputs: []string{"s"}, Outputs: []string{"o"}, Run: nop})
			return a
		}, `task "t" declared twice`},
		{"no run", func() *App {
			a := NewApp("x").SourceBag("s").Bag("o")
			a.AddTask(TaskSpec{Name: "t", Inputs: []string{"s"}, Outputs: []string{"o"}})
			return a
		}, "no Run"},
		{"undeclared input", func() *App {
			a := NewApp("x").Bag("o")
			a.AddTask(TaskSpec{Name: "t", Inputs: []string{"ghost"}, Outputs: []string{"o"}, Run: nop})
			return a
		}, "undeclared"},
		{"undeclared output", func() *App {
			a := NewApp("x").SourceBag("s")
			a.AddTask(TaskSpec{Name: "t", Inputs: []string{"s"}, Outputs: []string{"ghost"}, Run: nop})
			return a
		}, "undeclared"},
		{"undeclared scan", func() *App {
			a := NewApp("x").SourceBag("s").Bag("o")
			a.AddTask(TaskSpec{Name: "t", Inputs: []string{"s"}, ScanInputs: []string{"ghost"}, Outputs: []string{"o"}, Run: nop})
			return a
		}, "scans undeclared"},
		{"write source", func() *App {
			a := NewApp("x").SourceBag("s").SourceBag("s2")
			a.AddTask(TaskSpec{Name: "t", Inputs: []string{"s"}, Outputs: []string{"s2"}, Run: nop})
			return a
		}, "source"},
		{"no inputs", func() *App {
			a := NewApp("x").Bag("o")
			a.AddTask(TaskSpec{Name: "t", Outputs: []string{"o"}, Run: nop})
			return a
		}, "no inputs"},
		{"merge arity", func() *App {
			a := NewApp("x").SourceBag("s").Bag("o1").Bag("o2")
			a.AddTask(TaskSpec{Name: "t", Inputs: []string{"s"}, Outputs: []string{"o1", "o2"}, Run: nop, Merge: nop})
			return a
		}, "merge"},
		{"double consumer", func() *App {
			a := NewApp("x").SourceBag("s").Bag("o1").Bag("o2")
			a.AddTask(TaskSpec{Name: "t1", Inputs: []string{"s"}, Outputs: []string{"o1"}, Run: nop})
			a.AddTask(TaskSpec{Name: "t2", Inputs: []string{"s"}, Outputs: []string{"o2"}, Run: nop})
			return a
		}, "consumed by 2"},
		{"cycle", func() *App {
			a := NewApp("x").SourceBag("s").Bag("m1").Bag("m2")
			a.AddTask(TaskSpec{Name: "t1", Inputs: []string{"s", "m2"}, Outputs: []string{"m1"}, Run: nop})
			a.AddTask(TaskSpec{Name: "t2", Inputs: []string{"m1"}, Outputs: []string{"m2"}, Run: nop})
			return a
		}, "cycle"},
		{"partitioned source", func() *App {
			a := NewApp("x").AddBag(BagSpec{Name: "s", Source: true, Partitions: 4}).Bag("o")
			a.AddTask(TaskSpec{Name: "t", Inputs: []string{"s"}, Outputs: []string{"o"}, Run: nop})
			return a
		}, "source bag"},
		{"spread without partitions", func() *App {
			a := NewApp("x").SourceBag("s").AddBag(BagSpec{Name: "o", Spread: true})
			a.AddTask(TaskSpec{Name: "t", Inputs: []string{"s"}, Outputs: []string{"o"}, Run: nop})
			return a
		}, "Spread without Partitions"},
		{"partitioned mixed inputs", func() *App {
			a := NewApp("x").SourceBag("s").SourceBag("s2").PartitionedBag("p", 4).Bag("o")
			a.AddTask(TaskSpec{Name: "prod", Inputs: []string{"s"}, Outputs: []string{"p"}, Run: nop})
			a.AddTask(TaskSpec{Name: "cons", Inputs: []string{"p", "s2"}, Outputs: []string{"o"}, Run: nop})
			return a
		}, "alongside other inputs"},
		{"partitioned scan", func() *App {
			a := NewApp("x").SourceBag("s").PartitionedBag("p", 4).Bag("o")
			a.AddTask(TaskSpec{Name: "prod", Inputs: []string{"s"}, Outputs: []string{"p"}, Run: nop})
			a.AddTask(TaskSpec{Name: "cons", Inputs: []string{"s"}, ScanInputs: []string{"p"}, Outputs: []string{"o"}, Run: nop})
			return a
		}, "scans partitioned"},
		{"merge targeting partitioned bag", func() *App {
			a := NewApp("x").SourceBag("s").PartitionedBag("p", 4)
			a.AddTask(TaskSpec{Name: "prod", Inputs: []string{"s"}, Outputs: []string{"p"}, Run: nop, Merge: nop})
			return a
		}, "merge procedure cannot target"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.build().Validate()
			if err == nil {
				t.Fatalf("expected error containing %q", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not contain %q", err, c.want)
			}
		})
	}
}

func TestValidatePartitionedHappyPath(t *testing.T) {
	a := NewApp("x").SourceBag("s").
		AddBag(BagSpec{Name: "p", Partitions: 4, Spread: true}).Bag("o")
	a.AddTask(TaskSpec{Name: "prod", Inputs: []string{"s"}, Outputs: []string{"p"}, Run: nop})
	a.AddTask(TaskSpec{Name: "cons", Inputs: []string{"p"}, Outputs: []string{"o"}, Run: nop})
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if !a.partitioned("p") || a.partitioned("o") || a.partitioned("ghost") {
		t.Fatal("partitioned() misclassifies bags")
	}
}

func TestValidateScanSharingAllowed(t *testing.T) {
	// Two tasks may scan the same bag (only consumption is exclusive).
	a := NewApp("x").SourceBag("s").SourceBag("lookup").Bag("o1").Bag("o2")
	a.AddTask(TaskSpec{Name: "t1", Inputs: []string{"s"}, ScanInputs: []string{"lookup"}, Outputs: []string{"o1"}, Run: nop})
	a.AddTask(TaskSpec{Name: "t2", Inputs: []string{"o1"}, ScanInputs: []string{"lookup"}, Outputs: []string{"o2"}, Run: nop})
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBlueprintRoundTripQuick(t *testing.T) {
	f := func(spec string, worker, epoch uint8, merge bool, inputs, outputs []string) bool {
		kind := KindTask
		if merge {
			kind = KindMerge
		}
		bp := &Blueprint{
			ID:      blueprintID(spec, int(worker), int(epoch)),
			Spec:    spec,
			Kind:    kind,
			Worker:  int(worker),
			Epoch:   int(epoch),
			Inputs:  inputs,
			Outputs: outputs,
		}
		got, err := DecodeBlueprint(bp.Encode())
		if err != nil {
			return false
		}
		if got.ID != bp.ID || got.Spec != bp.Spec || got.Kind != bp.Kind ||
			got.Worker != bp.Worker || got.Epoch != bp.Epoch ||
			len(got.Inputs) != len(bp.Inputs) || len(got.Outputs) != len(bp.Outputs) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBlueprintDecodeBad(t *testing.T) {
	if _, err := DecodeBlueprint([]byte("not json")); err == nil {
		t.Fatal("bad blueprint must error")
	}
	if _, err := decodeEvent([]byte("{")); err == nil {
		t.Fatal("bad event must error")
	}
}

func TestEventRoundTrip(t *testing.T) {
	e := &event{TaskID: "t/w0@e1", Spec: "t", Node: "compute-3", Epoch: 1, Worker: 0, Merge: true, OK: true}
	got, err := decodeEvent(e.encode())
	if err != nil {
		t.Fatal(err)
	}
	if *got != *e {
		t.Fatalf("round trip: %+v != %+v", got, e)
	}
}

func TestPartialBagNaming(t *testing.T) {
	p0 := partialBag("out", 0, 0)
	p1 := partialBag("out", 1, 0)
	e1 := partialBag("out", 0, 1)
	if p0 == p1 || p0 == e1 || p1 == e1 {
		t.Fatal("partial bag names must be distinct per worker and epoch")
	}
}

func TestTaskStateReset(t *testing.T) {
	st := &taskState{spec: &TaskSpec{Name: "t", Outputs: []string{"o"}}}
	st.reset(0)
	st.workers = 3
	st.doneWorkers[0] = true
	st.advance(finished)
	st.reset(1)
	if st.epoch != 1 || st.workers != 0 || len(st.doneWorkers) != 0 || st.phase != pending {
		t.Fatalf("reset incomplete: %+v", st)
	}
	st.workers = 2
	ps := st.partials()
	if len(ps) != 2 || ps[0] == ps[1] {
		t.Fatalf("partials: %v", ps)
	}
}

func TestClusterConfigDefaults(t *testing.T) {
	cfg := ClusterConfig{}
	cfg.fill()
	if cfg.StorageNodes == 0 || cfg.ComputeNodes == 0 || cfg.SlotsPerNode == 0 ||
		cfg.ChunkSize == 0 {
		t.Fatalf("defaults not filled: %+v", cfg)
	}
	nc := NodeConfig{}
	nc.fill()
	if nc.MonitorInterval == 0 || nc.OverloadThreshold == 0 {
		t.Fatalf("node defaults not filled: %+v", nc)
	}
	mc := MasterConfig{}
	mc.fill()
	if mc.CloneInterval == 0 || mc.SplitInterval == 0 {
		t.Fatalf("master defaults not filled: %+v", mc)
	}
}

// TestDefaultPoliciesNeverNil: the default set is exactly one ClonePolicy,
// whether or not the inert SpeculativeCloning flag is set — an overload
// signal is the only clone trigger.
func TestDefaultPoliciesNeverNil(t *testing.T) {
	for _, speculative := range []bool{false, true} {
		ps := DefaultPolicies(MasterConfig{SpeculativeCloning: speculative})
		if len(ps) != 1 {
			t.Fatalf("SpeculativeCloning=%v: DefaultPolicies = %#v, want one ClonePolicy", speculative, ps)
		}
		if _, ok := ps[0].(*ctrl.ClonePolicy); !ok {
			t.Fatalf("SpeculativeCloning=%v: DefaultPolicies = %#v, want one ClonePolicy", speculative, ps)
		}
	}
}

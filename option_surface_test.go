package repro

import (
	"reflect"
	"slices"
	"testing"

	"repro/hurricane"
	"repro/hurricane/q"
)

// optionSurface is every settable field of the public config structs: a
// field stays only if a caller chooses its value, and the engine picks the
// rest itself. Adding an option means adding it here, in review.
var optionSurface = []string{
	"ClusterConfig.StorageNodes",
	"ClusterConfig.ComputeNodes",
	"ClusterConfig.SlotsPerNode",
	"ClusterConfig.ChunkSize",
	"ClusterConfig.Replication",
	"ClusterConfig.DiskDir",
	"ClusterConfig.Obs",

	"NodeConfig.MonitorInterval",
	"NodeConfig.OverloadThreshold",

	"MasterConfig.CloneInterval",
	"MasterConfig.SpeculativeCloning",
	"MasterConfig.SplitInterval",
	"MasterConfig.Policies",

	"SchedConfig.DisableFairShare",

	"JobConfig.Name",
	"JobConfig.Raw",
	"JobConfig.Weight",
	"JobConfig.Seeds",

	"StreamSpec.Name",
	"StreamSpec.App",
	"StreamSpec.Sources",
	"StreamSpec.Window",
	"StreamSpec.Origin",
	"StreamSpec.MaxInFlight",
	"StreamSpec.ColdStart",

	"q.Options.Parts",
	"q.Options.Static",
	"q.Options.Stats",
}

// TestOptionSurface pins the public option surface to optionSurface. A
// struct-valued field (ClusterConfig.Node, .Master, .Sched) nests another
// config struct whose fields are listed under its own name, so it is not
// counted itself.
func TestOptionSurface(t *testing.T) {
	structs := []struct {
		name string
		v    any
	}{
		{"ClusterConfig", hurricane.ClusterConfig{}},
		{"NodeConfig", hurricane.NodeConfig{}},
		{"MasterConfig", hurricane.MasterConfig{}},
		{"SchedConfig", hurricane.SchedConfig{}},
		{"JobConfig", hurricane.JobConfig{}},
		{"StreamSpec", hurricane.StreamSpec{}},
		{"q.Options", q.Options{}},
	}
	var got []string
	for _, s := range structs {
		typ := reflect.TypeOf(s.v)
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() || f.Type.Kind() == reflect.Struct {
				continue
			}
			got = append(got, s.name+"."+f.Name)
		}
	}
	for _, name := range got {
		if !slices.Contains(optionSurface, name) {
			t.Errorf("option %s is not in optionSurface", name)
		}
	}
	for _, name := range optionSurface {
		if !slices.Contains(got, name) {
			t.Errorf("optionSurface lists %s, which no config struct has", name)
		}
	}
	t.Logf("%d options", len(got))
}

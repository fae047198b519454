package main

import (
	"fmt"

	"offloadsim"
)

// oscoresFlags collects the multi-OS-core flag values (docs/OSCORES.md)
// so they can be validated up front as a unit — the flags constrain each
// other (-affinity indexes must fit -os-cores, -async-slots needs
// -async), so per-flag checks cannot catch everything.
type oscoresFlags struct {
	K          int
	Affinity   string
	Asymmetry  string
	Async      bool
	AsyncSlots int
	DepthN     int
	Rebalance  bool
}

// block validates the flags and returns the Config block they describe.
// All-default flags return the disabled zero block: the run is the
// classic single-OS-core model (the K=1 cluster), byte-identical to
// builds that predate the cluster model.
func (f oscoresFlags) block() (offloadsim.OSCores, error) {
	if f.K < 1 {
		return offloadsim.OSCores{}, fmt.Errorf("-os-cores must be >= 1 (got %d)", f.K)
	}
	if f.K > offloadsim.MaxOSCores {
		return offloadsim.OSCores{}, fmt.Errorf("-os-cores must be <= %d (got %d)", offloadsim.MaxOSCores, f.K)
	}
	if err := offloadsim.ValidateAffinity(f.Affinity, f.K); err != nil {
		return offloadsim.OSCores{}, fmt.Errorf("-affinity: %v", err)
	}
	if err := offloadsim.ValidateAsymmetry(f.Asymmetry, f.K); err != nil {
		return offloadsim.OSCores{}, fmt.Errorf("-asymmetry: %v", err)
	}
	if f.AsyncSlots < 0 {
		return offloadsim.OSCores{}, fmt.Errorf("-async-slots must be >= 0 (got %d)", f.AsyncSlots)
	}
	if f.AsyncSlots > 0 && !f.Async {
		return offloadsim.OSCores{}, fmt.Errorf("-async-slots requires -async")
	}
	if f.DepthN < 0 {
		return offloadsim.OSCores{}, fmt.Errorf("-depth-n must be >= 0 (got %d)", f.DepthN)
	}
	if f == (oscoresFlags{K: 1}) {
		return offloadsim.OSCores{}, nil
	}
	return offloadsim.OSCores{
		Enabled:    true,
		K:          f.K,
		Affinity:   f.Affinity,
		Asymmetry:  f.Asymmetry,
		Async:      f.Async,
		AsyncSlots: f.AsyncSlots,
		DepthN:     f.DepthN,
		Rebalance:  f.Rebalance,
	}, nil
}

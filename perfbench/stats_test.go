package main

import (
	"math"
	"testing"
	"time"
)

// TestOwnSeconds checks that the stolen share of the VM's CPU time is
// taken out of a window's wall time.
func TestOwnSeconds(t *testing.T) {
	t0 := time.Unix(100, 0)
	a := procSample{wall: t0, vm: vmCPU{total: 1000, steal: 50}}
	b := procSample{wall: t0.Add(10 * time.Second), vm: vmCPU{total: 3000, steal: 550}}
	if got := stolen(a, b); got != 0.25 {
		t.Errorf("stolen = %v, want 0.25", got)
	}
	if got := ownSeconds(a, b); math.Abs(got-7.5) > 1e-12 {
		t.Errorf("ownSeconds = %v, want 7.5", got)
	}
	// Without readable counters nothing is taken out.
	if got := ownSeconds(procSample{wall: t0}, procSample{wall: t0.Add(time.Second)}); got != 1 {
		t.Errorf("ownSeconds without counters = %v, want 1", got)
	}
	if c := readVMCPU(); c.total <= 0 || c.steal < 0 || c.steal > c.total {
		t.Errorf("readVMCPU() = %+v", c)
	}
}

package power

import (
	"math/rand"
	"testing"

	"copa/internal/linalg"
)

func randomCoef(seed int64, n int) []float64 {
	r := rand.New(rand.NewSource(seed))
	coef := make([]float64, n)
	for i := range coef {
		coef[i] = r.Float64() * 40
	}
	return coef
}

// TestAllocatorAllocBudgets pins the per-stream allocators at zero
// steady-state allocations once their workspace has warmed up.
func TestAllocatorAllocBudgets(t *testing.T) {
	coef := randomCoef(3, 52)
	const budget = 100.0

	allocators := []struct {
		name string
		run  func(ws *linalg.Workspace) Allocation
	}{
		{"EquiSNRWS", func(ws *linalg.Workspace) Allocation { return EquiSNRWS(ws, coef, budget, -1) }},
		{"WaterfillWS", func(ws *linalg.Workspace) Allocation { return WaterfillWS(ws, coef, budget) }},
	}
	for _, a := range allocators {
		t.Run(a.name, func(t *testing.T) {
			var ws linalg.Workspace
			a.run(&ws) // warm up
			allocs := testing.AllocsPerRun(100, func() {
				ws.Reset()
				a.run(&ws)
			})
			if allocs != 0 {
				t.Errorf("%s: %v allocs/run in steady state, want 0", a.name, allocs)
			}
		})
	}
}

// TestEquiSNRWSMatchesEquiSNR proves the workspace fast path is the same
// algorithm: identical powers, rate, and drop count.
func TestEquiSNRWSMatchesEquiSNR(t *testing.T) {
	var ws linalg.Workspace
	for seed := int64(1); seed <= 5; seed++ {
		coef := randomCoef(seed, 52)
		want := EquiSNR(coef, 100)
		ws.Reset()
		got := EquiSNRWS(&ws, coef, 100, -1)
		if got.Dropped != want.Dropped || got.Rate != want.Rate {
			t.Fatalf("seed %d: rate/dropped mismatch: %+v vs %+v", seed, got.Rate, want.Rate)
		}
		for k := range want.PowerMW {
			if got.PowerMW[k] != want.PowerMW[k] {
				t.Fatalf("seed %d sc %d: power %v != %v", seed, k, got.PowerMW[k], want.PowerMW[k])
			}
		}
	}
}

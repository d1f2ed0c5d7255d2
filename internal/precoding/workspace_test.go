package precoding

import (
	"testing"

	"copa/internal/channel"
)

// TestStreamSINRsWSAllocBudget pins the SINR evaluation hot path at zero
// steady-state allocations: once the arena has warmed up, Reset+evaluate
// cycles must not touch the heap, whether or not the call also writes the
// SINR coefficients.
func TestStreamSINRsWSAllocBudget(t *testing.T) {
	own := testLink(11, 2, 4, -55)
	cross := testLink(12, 2, 4, -65)
	p, err := Beamforming(own, 2)
	if err != nil {
		t.Fatal(err)
	}
	powers := EqualSplit(len(own.Subcarriers), p.Streams, channel.BudgetForAntennasMW(4))
	tx := NewTransmission(p, powers, channel.DefaultImpairments())
	noise := channel.NoisePerSubcarrierMW()

	for _, withCoefs := range []bool{false, true} {
		var ws Workspace
		run := func() {
			ws.Reset()
			var coefs [][]float64
			if withCoefs {
				coefs = ws.FloatRows(len(own.Subcarriers), p.Streams)
			}
			StreamSINRsWS(&ws, own, tx, cross, tx, noise, coefs)
		}
		run() // warm up
		if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
			t.Errorf("StreamSINRsWS (coefficients %v): %v allocs/run in steady state, want 0", withCoefs, allocs)
		}
	}
}

// TestNullingIntoAllocBudget checks the precoder-rebuild path reuses the
// destination precoder's storage: after the first build, rebuilding into
// the same dst must not allocate.
func TestNullingIntoAllocBudget(t *testing.T) {
	own := testLink(13, 2, 4, -55)
	victim := testLink(14, 2, 4, -60)

	var ws Workspace
	dst, err := NullingInto(&ws, nil, own, victim, 2)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := NullingInto(&ws, dst, own, victim, 2); err != nil {
			t.Fatalf("NullingInto: %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("NullingInto steady state: %v allocs/run, want 0", allocs)
	}
}

// TestIntoBuildersMatchHeapBuilders proves the workspace builders produce
// exactly the precoders the original heap builders do.
func TestIntoBuildersMatchHeapBuilders(t *testing.T) {
	own := testLink(15, 2, 4, -55)
	victim := testLink(16, 2, 4, -60)

	var ws Workspace
	bfInto, err := BeamformingInto(&ws, nil, own, 2)
	if err != nil {
		t.Fatal(err)
	}
	bf, err := Beamforming(own, 2)
	if err != nil {
		t.Fatal(err)
	}
	nlInto, err := NullingInto(&ws, nil, own, victim, 2)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := Nulling(own, victim, 2)
	if err != nil {
		t.Fatal(err)
	}
	for k := range own.Subcarriers {
		for i, v := range bf.PerSubcarrier[k].Data {
			if v != bfInto.PerSubcarrier[k].Data[i] {
				t.Fatalf("beamforming sc %d elem %d: %v != %v", k, i, bfInto.PerSubcarrier[k].Data[i], v)
			}
		}
		for i, v := range nl.PerSubcarrier[k].Data {
			if v != nlInto.PerSubcarrier[k].Data[i] {
				t.Fatalf("nulling sc %d elem %d: %v != %v", k, i, nlInto.PerSubcarrier[k].Data[i], v)
			}
		}
	}
}

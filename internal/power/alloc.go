// Package power implements COPA's power-allocation algorithms (§3.2):
//
//   - NoPA — the status quo: equal power on every subcarrier.
//   - Equi-SNR (Algorithm 1) — sort subcarriers by quality, consider
//     dropping the worst i, equalize received S(I)NR on the rest, and keep
//     the drop count that maximizes predicted 802.11 throughput.
//   - Equi-SINR (Fig. 6) — the concurrent, iterative variant: per-stream
//     Equi-SNR against the current interference, recompute the
//     cross-stream interference, iterate, remembering the best solution.
//   - Classic waterfilling — the Gaussian-input optimum, as a baseline.
//   - Mercury/water-filling — the optimum for discrete QAM inputs
//     (Lozano, Tulino, Verdú), including its natural subcarrier cutoff,
//     plus the iterated concurrent variant the paper calls COPA+.
//
// All single-stream allocators work on a vector of per-subcarrier SINR
// coefficients: coef[k] is the linear SINR stream power p_k buys per
// milliwatt on subcarrier k with everything else held fixed (see
// precoding.StreamSINRsWS, which writes them from the same MMSE pass
// that scores the state).
package power

import (
	"copa/internal/linalg"
	"copa/internal/ofdm"
	"copa/internal/precoding"
)

// Allocation is the outcome of allocating one stream's power budget
// across subcarriers.
type Allocation struct {
	// PowerMW[k] is the power assigned to subcarrier k (0 = dropped).
	PowerMW []float64
	// Rate is the predicted best 802.11 rate and goodput for the
	// resulting per-subcarrier SINRs.
	Rate ofdm.StreamRate
	// Dropped is the number of subcarriers carrying no power.
	Dropped int
}

// predictedSINRs converts an allocation back to the per-subcarrier SINRs
// implied by the linearized coefficients.
func predictedSINRs(powerMW, coef []float64) []float64 {
	sinrs := make([]float64, len(powerMW))
	predictedSINRsInto(sinrs, powerMW, coef)
	return sinrs
}

// predictedSINRsInto writes the per-subcarrier SINRs implied by the
// linearized coefficients into dst (fully overwritten).
func predictedSINRsInto(dst, powerMW, coef []float64) {
	for k, p := range powerMW {
		if p <= 0 {
			dst[k] = precoding.Dropped
		} else {
			dst[k] = p * coef[k]
		}
	}
}

// NoPA returns the status-quo allocation: budget split equally over all
// subcarriers, nothing dropped (§2's baseline).
func NoPA(coef []float64, budgetMW float64) Allocation {
	n := len(coef)
	powers := make([]float64, n)
	per := budgetMW / float64(n)
	for k := range powers {
		powers[k] = per
	}
	return Allocation{
		PowerMW: powers,
		Rate:    ofdm.BestRate(predictedSINRs(powers, coef)),
	}
}

// EquiSNR implements Algorithm 1 for one stream: for every candidate drop
// count i, give no power to the i weakest subcarriers, equalize the
// received S(I)NR on the rest (p_k ∝ 1/coef_k), predict the best 802.11
// rate, and keep the drop count that maximizes throughput.
//
// When coef is a pure-SNR linearization this is the paper's Equi-SNR; fed
// interference-aware coefficients it is one Equi-SINR step.
func EquiSNR(coef []float64, budgetMW float64) Allocation {
	var ws linalg.Workspace
	a := EquiSNRWS(&ws, coef, budgetMW, -1)
	a.PowerMW = append([]float64(nil), a.PowerMW...)
	return a
}

// EquiSNRWS is EquiSNR with all scratch and the returned power vector
// carved from ws: allocation-free once ws has warmed up. The returned
// Allocation.PowerMW lives in ws (see linalg.Workspace ownership rules).
//
// warmDrop, when ≥ 0, is a previous solve's Allocation.Dropped for the
// same stream. The online re-allocation loop (internal/drift) re-solves
// streams whose channel has barely moved, so the previous winner is an
// excellent incumbent: seeding the scan with it lets the goodput-ceiling
// prune reject most drop counts at once. Any hint value, in range or not,
// yields the identical allocation; a good hint only makes the scan
// cheaper. Pass -1 for no hint.
//
// Equivalence argument (enforced bit-for-bit by warm_test.go): the scan
// visits drop counts ascending and returns the smallest drop count
// achieving the maximum goodput. Without an incumbent the update is a
// strict >, which keeps the first maximum. A hinted incumbent is
// replaced on strictly better goodput, or on equal goodput at a smaller
// drop; the scan stops once the rate ceiling falls below the incumbent,
// or ties it with no smaller drop left to visit. Every candidate's power
// vector is a pure function of (coef, budget, drop), so the returned
// allocation does not depend on the hint.
func EquiSNRWS(ws *linalg.Workspace, coef []float64, budgetMW float64, warmDrop int) Allocation {
	mEquiSNRCalls.Inc()
	if warmDrop >= 0 {
		mEquiSNRWarmCalls.Inc()
	}
	n := len(coef)
	order := ws.Ints(n)
	for i := range order {
		order[i] = i
	}
	linalg.SortOrderAsc(order, coef)

	best := Allocation{PowerMW: ws.Float64s(n)}
	powers := ws.Float64s(n)
	sinrs := ws.Float64s(n)
	// bestDrop is the drop count that produced the incumbent, -1 while
	// there is none. Pass i = -1 visits the hint, if in range, before the
	// ascending scan; with no incumbent yet the prune cannot fire on it
	// (the ceiling of a usable candidate is positive) and it is kept iff
	// its goodput is positive.
	bestDrop := -1
	for i := -1; i < n; i++ {
		drop := i
		if i < 0 {
			if warmDrop < 0 || warmDrop >= n {
				continue
			}
			drop = warmDrop
		} else if drop == bestDrop {
			continue // the incumbent itself; re-evaluating cannot change it
		}
		// Equalize SINR on the kept subcarriers: p_k = T/coef_k with
		// T = budget / Σ 1/coef_k.
		var invSum float64
		usable := 0
		for _, k := range order[drop:] {
			if coef[k] > 0 {
				invSum += 1 / coef[k]
				usable++
			}
		}
		if usable == 0 {
			continue
		}
		// Prune: the zero-FER ceiling bounds this and every later drop
		// count (usable is non-increasing in drop). Below the incumbent
		// nothing can win; at the incumbent's exact goodput only a
		// smaller drop could, so past bestDrop a tie is unreachable too.
		ceiling := ofdm.StreamGoodputCeiling(usable)
		if ceiling < best.Rate.GoodputBps || (ceiling == best.Rate.GoodputBps && drop > bestDrop) {
			break
		}
		target := budgetMW / invSum
		clear(powers)
		for _, k := range order[drop:] {
			if coef[k] > 0 {
				powers[k] = target / coef[k]
			}
		}
		predictedSINRsInto(sinrs, powers, coef)
		rate := ofdm.BestRate(sinrs)
		if rate.GoodputBps > best.Rate.GoodputBps ||
			(rate.GoodputBps == best.Rate.GoodputBps && drop < bestDrop) {
			copy(best.PowerMW, powers)
			best.Rate = rate
			best.Dropped = n - usable
			bestDrop = drop
		}
	}
	if best.Rate.GoodputBps == 0 {
		// Nothing decodable at any drop count: fall back to equal split
		// so the transmission descriptor stays well-formed.
		mDropCount.ObserveInt(0)
		per := budgetMW / float64(n)
		for k := range best.PowerMW {
			best.PowerMW[k] = per
		}
		predictedSINRsInto(sinrs, best.PowerMW, coef)
		best.Rate = ofdm.BestRate(sinrs)
		best.Dropped = 0
		return best
	}
	mDropCount.ObserveInt(best.Dropped)
	return best
}

package power

import "copa/internal/obs"

// Pre-resolved metric handles (see internal/obs): resolved once at
// package init so the per-subcarrier hot paths never do a map lookup.
var (
	// mEquiSNRCalls counts Algorithm 1 invocations (one per stream per
	// Equi-SINR iteration).
	mEquiSNRCalls = obs.C("copa.power.equisnr_calls")
	// mEquiSNRWarmCalls counts the Equi-SNR invocations given a drop
	// hint ≥ 0 (the drift controller's incremental re-allocations).
	mEquiSNRWarmCalls = obs.C("copa.power.equisnr_warm_calls")
	// mDropCount is the distribution of dropped subcarriers per
	// Equi-SNR allocation (0..NumSubcarriers).
	mDropCount = obs.H("copa.power.drop_count", obs.LinearBuckets(0, 4, 14))
	// mMercuryCalls counts mercury/water-filling solves (COPA+ inner
	// step; four per MercuryBest call, one per constellation).
	mMercuryCalls = obs.C("copa.power.mercury_calls")
	// mAllocIters is the distribution of Equi-SINR iterations actually
	// performed before convergence or the MaxIters cap.
	mAllocIters = obs.H("copa.power.alloc_iters", obs.LinearBuckets(0, 1, 13))
	// mAllocSeconds times one full iterate() solve (solo or joint).
	mAllocSeconds = obs.T("copa.power.alloc_seconds")
	// mConvergeFails counts solves that hit MaxIters without settling.
	mConvergeFails = obs.C("copa.power.converge_failures")
)

package power

import (
	"math"

	"copa/internal/channel"
	"copa/internal/ofdm"
	"copa/internal/precoding"
)

// InnerAllocator is the single-stream allocation step plugged into the
// Equi-SINR iteration: EquiSNR for COPA, MercuryBest for COPA+.
type InnerAllocator func(coef []float64, budgetMW float64) Allocation

// SenderCSI bundles the channel knowledge the leader AP has about one
// sender when computing a joint allocation (all links are CSI estimates,
// not ground truth).
type SenderCSI struct {
	// Own is the sender → its-own-client channel estimate.
	Own *channel.Link
	// Cross is the sender → other-client channel estimate; nil when the
	// sender is transmitting alone.
	Cross *channel.Link
	// Precoder is the sender's chosen spatial profile.
	Precoder *precoding.Precoder
	// BudgetMW is the sender's total transmit power budget.
	BudgetMW float64
}

// Config parameterizes the iterative allocation.
type Config struct {
	Impairments  channel.Impairments
	NoisePerSCMW float64
	// MaxIters bounds the Equi-SINR iteration (Fig. 6); the paper's
	// algorithm iterates until convergence or a limit.
	MaxIters int
	// Inner is the per-stream allocator; defaults to EquiSNR.
	Inner InnerAllocator
	// JointInner, when set, replaces the per-stream loop entirely with a
	// joint allocation over all (subcarrier, stream) cells (see
	// JointAware). Inner is ignored for senders with >1 stream when set.
	// The coefs rows passed in are workspace-carved scratch: read them,
	// don't retain them.
	JointInner func(coefs [][]float64, budgetPerStreamMW float64) [][]float64

	// Scratch, when set, is the workspace arena the iteration carves its
	// SINR and allocation scratch from; the call resets it freely, so the
	// caller must not hold workspace-carved values across Sequential or
	// Concurrent. Leave nil to use a private arena per call.
	Scratch *precoding.Workspace

	// Warm, when set, seeds the Jacobi iteration from a previous
	// Result's power grids instead of the equal-split cold start — the
	// incremental re-allocation hook (internal/drift): on a channel that
	// has barely drifted the previous epoch's solution is already near
	// the fixed point and the iteration settles in one or two sweeps.
	// Ignored unless the shape (sender count, subcarriers, streams)
	// matches. The iteration still snapshots the best state seen, so a
	// stale warm start can slow convergence but never worsen the result
	// below the first re-allocated sweep.
	Warm *Result
	// WarmDrops[i][s], when non-nil, is sender i stream s's previous
	// Allocation.Dropped; the per-stream inner solves pass it to
	// EquiSNRWS as the drop hint (bit-identical results, cheaper scan).
	// An entry < 0 means "no hint" for that stream's first sweep. The
	// entries are refreshed in place after every Jacobi sweep, so a
	// caller that keeps the slice across epochs hands the next solve
	// up-to-date hints for free. Only consulted when Inner is nil.
	WarmDrops [][]int
	// Patience, when > 0, stops the Jacobi iteration after this many
	// consecutive sweeps without a strictly better best-so-far
	// allocation. The best-response dynamics track their best state and
	// typically peak within the first sweeps before oscillating (the
	// discrete Equi-SNR drop levels cycle rather than contract), so a
	// small patience keeps the result on instances whose best arrives
	// late while skipping the dead tail everywhere else — the drift
	// controller's incremental re-allocation runs with Patience 2.
	// Zero (the default) always runs MaxIters sweeps.
	Patience int
}

// DefaultConfig returns the standard COPA allocation configuration.
// Inner is left nil, which means Equi-SNR: the iteration then calls the
// allocation-free EquiSNRWS with the WarmDrops hints.
func DefaultConfig() Config {
	return Config{
		Impairments:  channel.DefaultImpairments(),
		NoisePerSCMW: channel.NoisePerSubcarrierMW(),
		MaxIters:     12,
	}
}

// Result is the outcome of a joint (or solo) allocation.
type Result struct {
	// Tx[i] is sender i's finished transmission descriptor.
	Tx []*precoding.Transmission
	// StreamRates[i] are sender i's predicted per-stream rates (on the
	// CSI estimates the allocation was computed from).
	StreamRates [][]ofdm.StreamRate
	// Goodput[i] is the predicted total goodput of sender i in bits/s.
	Goodput []float64
	// Iterations actually performed.
	Iterations int
	// Converged reports whether the iteration settled before MaxIters.
	Converged bool
}

// Aggregate returns the predicted aggregate goodput across senders.
func (r *Result) Aggregate() float64 {
	var t float64
	for _, g := range r.Goodput {
		t += g
	}
	return t
}

// Sequential allocates power for a sender transmitting alone (COPA-SEQ's
// building block): Equi-SNR per stream, iterated a few times so that
// inter-stream interference between the sender's own MIMO streams is
// accounted for.
func Sequential(s SenderCSI, cfg Config) *Result {
	return iterate([]SenderCSI{s}, cfg)
}

// Concurrent jointly allocates power for two senders transmitting
// concurrently (§3.2.1, Fig. 6): starting from equal split, each stream
// of each sender is re-allocated against the interference implied by the
// other streams' current allocation; the cross-interference is then
// recomputed and the process iterates. Because the per-stream steps are
// independent the iteration may regress, so the best solution seen (by
// predicted aggregate goodput) is retained and returned.
//
// senders[0].Cross must be the channel from sender 0 to client 1 and vice
// versa.
func Concurrent(senders [2]SenderCSI, cfg Config) *Result {
	return iterate(senders[:], cfg)
}

// newPowerGrid allocates an nSC×streams power matrix with contiguous rows.
func newPowerGrid(nSC, streams int) [][]float64 {
	flat := make([]float64, nSC*streams)
	grid := make([][]float64, nSC)
	for k := range grid {
		grid[k] = flat[k*streams : (k+1)*streams : (k+1)*streams]
	}
	return grid
}

// warmCopy copies a previous solve's power grid into dst, reporting
// false (dst untouched beyond rows already copied) on any shape
// mismatch.
func warmCopy(dst, src [][]float64) bool {
	if len(src) != len(dst) {
		return false
	}
	for k := range dst {
		if len(src[k]) != len(dst[k]) {
			return false
		}
		copy(dst[k], src[k])
	}
	return true
}

func iterate(senders []SenderCSI, cfg Config) *Result {
	timing := mAllocSeconds.Begin()
	n := len(senders)
	nSC := len(senders[0].Own.Subcarriers)
	if cfg.MaxIters <= 0 {
		cfg.MaxIters = 12
	}
	ws := cfg.Scratch
	if ws == nil {
		ws = &precoding.Workspace{}
	}
	ws.Reset()

	// Working transmissions over ping-pong power grids: tx[i] reads from
	// cur[i] while the Jacobi step writes next[i], so the workspace can be
	// reset at every iteration boundary without touching live powers.
	tx := make([]*precoding.Transmission, n)
	cur := make([][][]float64, n)
	next := make([][][]float64, n)
	warm := cfg.Warm
	if warm != nil && len(warm.Tx) != n {
		warm = nil
	}
	for i, s := range senders {
		cur[i] = newPowerGrid(nSC, s.Precoder.Streams)
		next[i] = newPowerGrid(nSC, s.Precoder.Streams)
		if warm != nil && !warmCopy(cur[i], warm.Tx[i].PowerMW) {
			warm = nil // shape mismatch: fall back to the cold start for all
		}
	}
	for i, s := range senders {
		if warm == nil {
			// Equal split start (the paper's assumption about the other
			// sender's initial behaviour); same arithmetic as EqualSplit.
			// A partially-copied warm start is overwritten here too.
			per := s.BudgetMW / float64(nSC*s.Precoder.Streams)
			for _, row := range cur[i] {
				for st := range row {
					row[st] = per
				}
			}
		}
		tx[i] = precoding.NewTransmission(s.Precoder, cur[i], cfg.Impairments)
	}
	// warmHint returns the per-(sender, stream) drop hint for the
	// warm-started inner scan, or -1 (no hint) when none was provided.
	// hints are refreshed each Jacobi sweep from the sweep's own results.
	hints := cfg.WarmDrops
	warmHint := func(i, st int) int {
		if hints == nil || i >= len(hints) || st >= len(hints[i]) {
			return -1
		}
		return hints[i][st]
	}
	setHint := func(i, st, d int) {
		if hints == nil || i >= len(hints) || st >= len(hints[i]) {
			return
		}
		hints[i][st] = d
	}

	crossFor := func(i int) (*channel.Link, *precoding.Transmission) {
		if n == 1 {
			return nil, nil
		}
		j := 1 - i
		if senders[j].Cross == nil {
			return nil, nil
		}
		return senders[j].Cross, tx[j]
	}

	// coefs[i] holds sender i's SINR coefficients for the state evaluate
	// last scored: the next Jacobi step allocates against them, so one
	// MMSE pass per sender serves both. iterate solves one or two senders.
	var coefs [2][][]float64
	evaluate := func() ([][]ofdm.StreamRate, []float64) {
		rates := make([][]ofdm.StreamRate, n)
		goodput := make([]float64, n)
		for i, s := range senders {
			cl, ct := crossFor(i)
			coefs[i] = ws.FloatRows(nSC, s.Precoder.Streams)
			sinrs := precoding.StreamSINRsWS(ws, s.Own, tx[i], cl, ct, cfg.NoisePerSCMW, coefs[i])
			rates[i] = streamRates(ws, sinrs, tx[i].Precoder.Streams)
			// Score with the joint (single-MCS-across-streams) rate the
			// client will actually decode at.
			goodput[i] = ofdm.JointBestRate(sinrs).GoodputBps
		}
		return rates, goodput
	}

	best := &Result{}
	snapshot := func(iter int, converged bool) (improved bool) {
		rates, goodput := evaluate()
		var agg float64
		for _, g := range goodput {
			agg += g
		}
		if best.Tx == nil || agg > best.Aggregate() {
			improved = true
			cp := make([]*precoding.Transmission, n)
			for i := range tx {
				powers := make([][]float64, nSC)
				for k := range powers {
					powers[k] = append([]float64(nil), tx[i].PowerMW[k]...)
				}
				cp[i] = precoding.NewTransmission(senders[i].Precoder, powers, cfg.Impairments)
			}
			best.Tx = cp
			best.StreamRates = rates
			best.Goodput = goodput
		}
		best.Iterations = iter
		best.Converged = converged
		return improved
	}
	snapshot(0, false)
	sinceBest := 0

	for iter := 1; iter <= cfg.MaxIters; iter++ {
		// Jacobi step: every stream of every sender re-allocates against
		// the interference of the *current* state; all updates then land
		// together.
		var maxDelta float64
		for i, s := range senders {
			streams := s.Precoder.Streams
			perStream := s.BudgetMW / float64(streams)
			np := next[i]
			if cfg.JointInner != nil && streams > 1 {
				jp := cfg.JointInner(coefs[i], perStream)
				for k := range jp {
					for st := range jp[k] {
						np[k][st] = jp[k][st]
						if d := math.Abs(jp[k][st] - tx[i].PowerMW[k][st]); d > maxDelta {
							maxDelta = d
						}
					}
				}
			} else {
				col := ws.Float64s(nSC)
				for st := 0; st < streams; st++ {
					for k, row := range coefs[i] {
						col[k] = row[st]
					}
					var alloc Allocation
					if cfg.Inner != nil {
						alloc = cfg.Inner(col, perStream)
					} else {
						alloc = EquiSNRWS(&ws.Workspace, col, perStream, warmHint(i, st))
						setHint(i, st, alloc.Dropped)
					}
					for k := range np {
						np[k][st] = alloc.PowerMW[k]
						if d := math.Abs(alloc.PowerMW[k] - tx[i].PowerMW[k][st]); d > maxDelta {
							maxDelta = d
						}
					}
				}
			}
		}
		for i := range tx {
			cur[i], next[i] = next[i], cur[i]
			tx[i] = precoding.NewTransmission(senders[i].Precoder, cur[i], cfg.Impairments)
		}
		// Everything carved since the last reset (the scored state's
		// coefs and SINRs, the inner allocations) is dead: live powers
		// sit in cur/next and best holds deep copies.
		ws.Reset()
		converged := maxDelta < 1e-9*senders[0].BudgetMW
		if snapshot(iter, converged) {
			sinceBest = 0
		} else {
			sinceBest++
		}
		if converged {
			break
		}
		if cfg.Patience > 0 && sinceBest >= cfg.Patience {
			break
		}
	}
	mAllocIters.ObserveInt(best.Iterations)
	if !best.Converged {
		mConvergeFails.Inc()
	}
	timing.End()
	return best
}

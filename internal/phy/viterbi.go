package phy

import "math"

// ViterbiDecode runs soft-decision maximum-likelihood decoding of the
// rate-1/2 mother code over the depunctured LLR stream (llrs[2i], llrs[2i+1]
// are the A and B observations for input bit i; positive LLR favours a
// transmitted 0). The decoder assumes the encoder started in state 0; if
// terminated is true it also assumes zero tail bits drove it back to
// state 0 and forces the traceback to end there.
func ViterbiDecode(llrs []float64, terminated bool) []byte {
	n := len(llrs) / 2
	if n == 0 {
		return nil
	}

	// Precompute per-state transition outputs.
	type trans struct {
		next uint32
		outA byte
		outB byte
	}
	var table [numStates][2]trans
	for s := uint32(0); s < numStates; s++ {
		for b := uint32(0); b < 2; b++ {
			reg := (s << 1) | b
			table[s][b] = trans{
				next: reg & (numStates - 1),
				outA: parity(reg & genA),
				outB: parity(reg & genB),
			}
		}
	}

	negInf := math.Inf(-1)
	metric := make([]float64, numStates)
	next := make([]float64, numStates)
	for i := range metric {
		metric[i] = negInf
	}
	metric[0] = 0

	// decisions[t][state] is the input bit that won state `state` at
	// step t; prev[t][state] the predecessor state.
	decisions := make([][]byte, n)
	prevs := make([][]uint32, n)

	for t := 0; t < n; t++ {
		la, lb := llrs[2*t], llrs[2*t+1]
		dec := make([]byte, numStates)
		prv := make([]uint32, numStates)
		for i := range next {
			next[i] = negInf
		}
		for s := uint32(0); s < numStates; s++ {
			if metric[s] == negInf {
				continue
			}
			for b := uint32(0); b < 2; b++ {
				tr := table[s][b]
				// Soft metric: LLR is log P(0)/P(1); a transmitted 0
				// earns +llr/2, a 1 earns −llr/2 (constant offsets drop).
				m := metric[s]
				if tr.outA == 0 {
					m += la
				} else {
					m -= la
				}
				if tr.outB == 0 {
					m += lb
				} else {
					m -= lb
				}
				if m > next[tr.next] {
					next[tr.next] = m
					dec[tr.next] = byte(b)
					prv[tr.next] = s
				}
			}
		}
		metric, next = next, metric
		decisions[t] = dec
		prevs[t] = prv
	}

	// Traceback from the best final state (or state 0 if terminated).
	best := uint32(0)
	if !terminated {
		bm := negInf
		for s := uint32(0); s < numStates; s++ {
			if metric[s] > bm {
				bm = metric[s]
				best = s
			}
		}
	}
	out := make([]byte, n)
	state := best
	for t := n - 1; t >= 0; t-- {
		out[t] = decisions[t][state]
		state = prevs[t][state]
	}
	return out
}

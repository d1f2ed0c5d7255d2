package channel

import (
	"fmt"

	"copa/internal/rng"
)

// MultiDeployment is a generalization of Deployment to n AP/client pairs
// sharing the floor — the ">2 senders" setting §3.1 discusses. Pair i is
// AP i serving client i; H[i][j] is the channel from AP i to client j.
type MultiDeployment struct {
	Scenario Scenario
	Pairs    int

	AP     []Point
	Client []Point

	// H[i][j]: AP i → client j.
	H [][]*Link

	// APGainDB[i][j] is the mean AP i → AP j link gain (dB), used to
	// decide who can hear whose ITS frames.
	APGainDB [][]float64

	// SignalDBm[j] is client j's mean received power from its own AP.
	SignalDBm []float64
}

// NewMultiDeployment draws n AP/client pairs on the office floor. Each
// pair is placed like a Deployment's: APs spread out, clients near their
// own AP, the usual path loss and shadowing on every AP→client path.
func NewMultiDeployment(src *rng.Source, sc Scenario, n int) (*MultiDeployment, error) {
	if n < 2 {
		return nil, fmt.Errorf("channel: a multi-deployment needs ≥2 pairs, got %d", n)
	}
	d := &MultiDeployment{
		Scenario:  sc,
		Pairs:     n,
		AP:        make([]Point, n),
		Client:    make([]Point, n),
		SignalDBm: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		for attempt := 0; ; attempt++ {
			if i == 0 {
				d.AP[0] = Point{src.Uniform(2, floorWidth-2), src.Uniform(2, floorHeight-2)}
			} else {
				d.AP[i] = randomPointNear(src, d.AP[i-1], minAPSep, maxAPSep)
			}
			d.Client[i] = randomPointNear(src, d.AP[i], minClientDist, maxClientDist)
			sig := ReceivedPowerDBm(MaxTxPowerDBm, PathLossDB(d.AP[i], d.Client[i]), src.Norm()*shadowingSigmaDB)
			if sig >= -70 && sig <= -30 {
				d.SignalDBm[i] = sig
				break
			}
			if attempt > 10000 {
				return nil, fmt.Errorf("channel: multi-deployment placement failed for pair %d", i)
			}
		}
	}
	d.H = make([][]*Link, n)
	d.APGainDB = make([][]float64, n)
	for i := 0; i < n; i++ {
		d.H[i] = make([]*Link, n)
		d.APGainDB[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			var rxDBm float64
			if i == j {
				rxDBm = d.SignalDBm[j]
			} else {
				rxDBm = ReceivedPowerDBm(MaxTxPowerDBm, PathLossDB(d.AP[i], d.Client[j]), src.Norm()*shadowingSigmaDB)
			}
			gain := DBToLinear(rxDBm - MaxTxPowerDBm)
			d.H[i][j] = NewLink(src.Split(uint64(1000+i*n+j)), sc.ClientAntennas, sc.APAntennas, gain)
			if i != j {
				d.APGainDB[i][j] = -PathLossDB(d.AP[i], d.AP[j])
			}
		}
	}
	return d, nil
}

// Evolve advances every link by dt seconds at the given coherence time.
func (d *MultiDeployment) Evolve(src *rng.Source, dt, coherence float64) {
	for i := range d.H {
		for j := range d.H[i] {
			d.H[i][j].Evolve(src.Split(uint64(i*d.Pairs+j)), dt, coherence)
		}
	}
}

// Benchmark for the batched Hermitian eigensolver kernels that carry
// the evaluation hot path (DESIGN §13). One timed unit decomposes all
// ofdm.NumSubcarriers (52) subcarrier matrices of one (mode, follower)
// pass in a single EigHermitianBatch call, once per specialized order:
// 2×2 closed form, 3×3 Cardano, 4×4 unrolled cyclic Jacobi.
//
// The perf gate (BENCH_baseline.json) pins allocs/op at 0: with a
// warmed workspace arena the batched kernels must never touch the Go
// allocator.
package copa

import (
	"fmt"
	"math/rand"
	"testing"

	"copa/internal/linalg"
	"copa/internal/ofdm"
)

// randHermitianData fills one n×n Hermitian matrix in the batch's
// struct-of-arrays layout: lane (i,j) of subcarrier k lives at
// (i*n+j)*count+k.
func randHermitianData(rnd *rand.Rand, data []complex128, n, count, k int) {
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := complex(rnd.NormFloat64(), rnd.NormFloat64())
			if i == j {
				v = complex(2*float64(n)+rnd.Float64(), 0) // diagonally loaded, PSD-ish
			}
			data[(i*n+j)*count+k] = v
			data[(j*n+i)*count+k] = complex(real(v), -imag(v))
		}
	}
}

func BenchmarkEigHermitianBatch(b *testing.B) {
	const count = ofdm.NumSubcarriers
	for _, n := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			rnd := rand.New(rand.NewSource(int64(1000 + n)))
			src := make([]complex128, n*n*count)
			for k := 0; k < count; k++ {
				randHermitianData(rnd, src, n, count, k)
			}

			var ws linalg.Workspace
			run := func() float64 {
				ws.Reset()
				batch := ws.HermitianBatch(n, count)
				copy(batch.Data, src)
				res := linalg.EigHermitianBatch(&ws, &batch)
				return res.Vals[0]
			}
			run() // warm the arena so steady state is measured

			b.ReportAllocs()
			b.ResetTimer()
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += run()
			}
			benchSink = sink
		})
	}
}

// benchSink defeats dead-code elimination of the benchmark loop.
var benchSink float64

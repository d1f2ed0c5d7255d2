// Package rng provides deterministic, splittable random sources for the
// simulator. Every experiment in this repository is seeded, so a figure or
// table regenerates identically run to run; per-topology and per-module
// streams are derived from a master seed so adding draws in one module does
// not perturb another.
package rng

import (
	"math"
	"math/rand"
)

// Source is a deterministic random stream with helpers for the
// distributions the channel simulator needs.
type Source struct {
	r *rand.Rand
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	return &Source{r: rand.New(rand.NewSource(seed))}
}

// splitMix64 mixes a 64-bit value; used to derive independent child seeds.
func splitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Split derives an independent child stream identified by tag. Streams with
// distinct tags are statistically independent of each other and of the
// parent's future output.
//
// Split draws from the parent, so the child depends on how many Splits
// preceded it — fine inside one experiment, but unusable when work is
// sharded across workers that must agree on substreams without sharing a
// parent. Use Derive/NewSub for that.
func (s *Source) Split(tag uint64) *Source {
	child := splitMix64(uint64(s.r.Int63()) ^ splitMix64(tag))
	return New(int64(child))
}

// Derive maps (seed, path...) to a child seed with a stateless SplitMix64
// chain: the result depends only on the seed and the path elements, never
// on call order or on any other stream's consumption. Two distinct paths
// from the same seed give statistically independent seeds, so sharded or
// resumed work derives bit-identical substreams regardless of which
// worker computes them, in what order, or after how many restarts. Path
// elements compose left to right — Derive(s, a, b) == Derive(Derive(s, a), b)
// — and each step mixes only the path element before folding it in, so the
// map is asymmetric in (seed, element): Derive(a, b) differs from
// Derive(b, a).
func Derive(seed int64, path ...uint64) int64 {
	x := uint64(seed)
	for _, p := range path {
		x = splitMix64(x ^ splitMix64(p))
	}
	return int64(x)
}

// NewSub returns a Source seeded with Derive(seed, path...) — the
// stateless counterpart of New(seed) followed by Splits.
func NewSub(seed int64, path ...uint64) *Source {
	return New(Derive(seed, path...))
}

// Float64 returns a uniform sample in [0, 1).
func (s *Source) Float64() float64 { return s.r.Float64() }

// Uniform returns a uniform sample in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 { return lo + (hi-lo)*s.r.Float64() }

// Intn returns a uniform integer in [0, n).
func (s *Source) Intn(n int) int { return s.r.Intn(n) }

// Norm returns a standard normal sample.
func (s *Source) Norm() float64 { return s.r.NormFloat64() }

// CN returns a circularly symmetric complex Gaussian sample with the given
// total variance: real and imaginary parts are each N(0, variance/2).
func (s *Source) CN(variance float64) complex128 {
	sd := math.Sqrt(variance / 2)
	return complex(sd*s.r.NormFloat64(), sd*s.r.NormFloat64())
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool { return s.r.Float64() < p }

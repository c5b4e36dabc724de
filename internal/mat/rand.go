package mat

import (
	"math"
	"math/rand"
)

// The generic initialisers draw exactly the same rng.Float64 /
// NormFloat64 sequence at every element type and only round the result
// into storage precision. A float32 model seeded like a float64 model
// therefore starts from the rounded image of the same weights, which is
// what keeps the two training trajectories comparable in the
// equivalence suites.

// RandUniformOf fills a new rows x cols matrix with uniform values in
// [-scale, scale) drawn from rng.
func RandUniformOf[T Float](rng *rand.Rand, rows, cols int, scale float64) *Dense[T] {
	m := NewOf[T](rows, cols)
	for i := range m.Data {
		m.Data[i] = T((rng.Float64()*2 - 1) * scale)
	}
	return m
}

// GlorotUniformOf returns a rows x cols matrix initialised with the
// Glorot (Xavier) uniform scheme: U(-s, s) with s = sqrt(6/(fanIn+fanOut)).
// This is the initialisation used by every dense layer in the NN,
// autoencoder and GraphSAGE modules.
func GlorotUniformOf[T Float](rng *rand.Rand, rows, cols int) *Dense[T] {
	s := math.Sqrt(6.0 / float64(rows+cols))
	return RandUniformOf[T](rng, rows, cols, s)
}

// RandNormalOf fills a new rows x cols matrix with N(mean, std) samples.
func RandNormalOf[T Float](rng *rand.Rand, rows, cols int, mean, std float64) *Dense[T] {
	m := NewOf[T](rows, cols)
	for i := range m.Data {
		m.Data[i] = T(rng.NormFloat64()*std + mean)
	}
	return m
}

// Shuffle permutes idx in place using rng.
func Shuffle(rng *rand.Rand, idx []int) {
	rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
}

package sparse

import (
	"math/rand"
	"testing"

	"trail/internal/mat"
)

// Micro-benchmarks for the CSR kernels: SpMMInto and the fused SAGE
// layer must report 0 allocs/op in steady state.

func benchOperator(b *testing.B, n, edges int) *Matrix {
	b.Helper()
	rng := rand.New(rand.NewSource(9))
	return FromAdj(randAdj(rng, n, edges)).MeanNormalized()
}

func BenchmarkSpMMInto(b *testing.B) {
	b.ReportAllocs()
	s := benchOperator(b, 5000, 20000)
	rng := rand.New(rand.NewSource(10))
	x := randFeatures(rng, 5000, 64)
	dst := mat.NewOf[float64](5000, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SpMMInto(dst, x)
	}
}

func BenchmarkSpMMTransInto(b *testing.B) {
	b.ReportAllocs()
	s := benchOperator(b, 5000, 20000)
	rng := rand.New(rand.NewSource(11))
	x := randFeatures(rng, 5000, 64)
	dst := mat.NewOf[float64](5000, 64)
	s.SpMMTransInto(dst, x) // build the cached transpose outside the loop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SpMMTransInto(dst, x)
	}
}

func BenchmarkSAGELayerInto(b *testing.B) {
	b.ReportAllocs()
	s := benchOperator(b, 5000, 20000)
	rng := rand.New(rand.NewSource(12))
	x := randFeatures(rng, 5000, 64)
	wMean := randFeatures(rng, 64, 64)
	wSelf := randFeatures(rng, 64, 64)
	bias := make([]float64, 64)
	dst := mat.NewOf[float64](5000, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SAGELayerInto(dst, x, wMean, wSelf, bias)
	}
}

// BenchmarkSAGELayerComposed is the three-kernel path SAGELayerInto
// replaces, for the fused-vs-composed comparison in EXPERIMENTS.md.
func BenchmarkSAGELayerComposed(b *testing.B) {
	b.ReportAllocs()
	s := benchOperator(b, 5000, 20000)
	rng := rand.New(rand.NewSource(12))
	x := randFeatures(rng, 5000, 64)
	wMean := randFeatures(rng, 64, 64)
	wSelf := randFeatures(rng, 64, 64)
	bias := make([]float64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = composedSAGELayer(s, x, wMean, wSelf, bias)
	}
}

// BenchmarkSpMMInto32 is BenchmarkSpMMInto at float32: half the bytes
// per gathered element, same CSR structure.
func BenchmarkSpMMInto32(b *testing.B) {
	b.ReportAllocs()
	s := Cast[float32](FromAdj(randAdj(rand.New(rand.NewSource(9)), 5000, 20000))).MeanNormalized()
	rng := rand.New(rand.NewSource(10))
	x := mat.Cast[float32](randFeatures(rng, 5000, 64))
	dst := mat.NewOf[float32](5000, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SpMMInto(dst, x)
	}
}

// hubAdj builds a scale-free-ish adjacency: a small set of hub vertices
// (at scattered IDs, so insertion order is far from degree order)
// collects most of the edges — the TKG's "common public IP" shape that
// the degree-descending reordering targets.
func hubAdj(rng *rand.Rand, n, edges, hubs int) [][]int32 {
	hubID := make([]int, hubs)
	for i := range hubID {
		hubID[i] = rng.Intn(n)
	}
	adj := make([][]int32, n)
	for e := 0; e < edges; e++ {
		u, v := hubID[rng.Intn(hubs)], rng.Intn(n)
		if u == v {
			continue
		}
		adj[u] = append(adj[u], int32(v))
		adj[v] = append(adj[v], int32(u))
	}
	return adj
}

// BenchmarkSpMMIntoHub / BenchmarkSpMMIntoHubReordered measure the
// cache effect of the degree-descending relabelling on a hub-heavy
// graph: identical operator and features, original vs permuted vertex
// order. The reordered run includes no gather/scatter — it measures the
// steady-state SpMM the permuted pipelines run per layer.
func BenchmarkSpMMIntoHub(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(13))
	s := FromAdj(hubAdj(rng, 40000, 160000, 64)).MeanNormalized()
	x := randFeatures(rng, 40000, 64)
	dst := mat.NewOf[float64](40000, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SpMMInto(dst, x)
	}
}

func BenchmarkSpMMIntoHubReordered(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(13))
	raw := FromAdj(hubAdj(rng, 40000, 160000, 64))
	rs, p := raw.Reordered()
	if p == nil {
		b.Fatal("reordering inactive on the hub graph")
	}
	s := rs.MeanNormalized()
	x := GatherRowsInto(p, mat.NewOf[float64](40000, 64), randFeatures(rng, 40000, 64))
	dst := mat.NewOf[float64](40000, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SpMMInto(dst, x)
	}
}

// The float32 hub pair isolates the combined effect: halving the
// element size doubles the cache-resident hub prefix, so the
// reordering's win compounds with the precision change.
func BenchmarkSpMMIntoHub32(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(13))
	s := Cast[float32](FromAdj(hubAdj(rng, 40000, 160000, 64))).MeanNormalized()
	x := mat.Cast[float32](randFeatures(rng, 40000, 64))
	dst := mat.NewOf[float32](40000, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SpMMInto(dst, x)
	}
}

func BenchmarkSpMMIntoHubReordered32(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(13))
	raw := Cast[float32](FromAdj(hubAdj(rng, 40000, 160000, 64)))
	rs, p := raw.Reordered()
	if p == nil {
		b.Fatal("reordering inactive on the hub graph")
	}
	s := rs.MeanNormalized()
	x := GatherRowsInto(p, mat.NewOf[float32](40000, 64), mat.Cast[float32](randFeatures(rng, 40000, 64)))
	dst := mat.NewOf[float32](40000, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SpMMInto(dst, x)
	}
}

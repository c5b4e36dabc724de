package mat

import (
	"math/rand"
	"testing"
)

// Micro-benchmarks for the dense kernels and the pool layer. allocs/op
// is the headline number here: every Into kernel and the steady-state
// workspace cycle must report 0.

func benchPair(rng *rand.Rand, n int) (*Matrix, *Matrix) {
	return randMat(rng, n, n), randMat(rng, n, n)
}

func BenchmarkMatMulInto(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(1))
	a, x := benchPair(rng, 128)
	dst := NewOf[float64](128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, a, x)
	}
}

func BenchmarkMatMulAlloc(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(1))
	a, x := benchPair(rng, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MatMul(a, x)
	}
}

func BenchmarkMatMulTransAInto(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(2))
	a, x := benchPair(rng, 128)
	dst := NewOf[float64](128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTransAInto(dst, a, x)
	}
}

func BenchmarkMatMulTransBInto(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(3))
	a, x := benchPair(rng, 128)
	dst := NewOf[float64](128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTransBInto(dst, a, x)
	}
}

func BenchmarkAddBiasReLUInto(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(4))
	x := randMat(rng, 256, 64)
	bias := make([]float64, 64)
	mask := NewOf[float64](256, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AddBiasReLUInto(x, bias, mask)
	}
}

func BenchmarkSoftmaxCrossEntropyInto(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(5))
	logits := randMat(rng, 512, 22)
	labels := make([]int, 512)
	rows := make([]int, 0, 256)
	for i := range labels {
		labels[i] = rng.Intn(22)
		if i%2 == 0 {
			rows = append(rows, i)
		}
	}
	grad := NewOf[float64](512, 22)
	probs := make([]float64, 22)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grad.Zero() // the kernel's contract: caller supplies a zeroed grad
		_ = SoftmaxCrossEntropyInto(grad, logits, rows, labels, probs)
	}
}

// BenchmarkWorkspaceCycle measures one steady-state scratch iteration:
// Reset, two matrix borrows (one zeroed, one dirty), one vector.
func BenchmarkWorkspaceCycle(b *testing.B) {
	b.ReportAllocs()
	ws := NewWorkspaceOf[float64]()
	defer ws.Release()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Reset()
		g := ws.Get(64, 64)
		d := ws.GetDirty(64, 64)
		v := ws.VecDirty(64)
		g.Data[0], d.Data[0], v[0] = 1, 2, 3
	}
}

// BenchmarkPoolGetPut measures the shape-keyed pool round trip alone.
func BenchmarkPoolGetPut(b *testing.B) {
	b.ReportAllocs()
	p := NewPoolOf[float64]()
	p.Put(p.Get(64, 64)) // seed the free list
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Put(p.GetDirty(64, 64))
	}
}

// Float32 counterparts of the headline kernels, for the precision
// bandwidth table in EXPERIMENTS.md: same shapes, half the bytes per
// element.

func BenchmarkMatMulInto32(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(1))
	a, x := benchPair(rng, 128)
	a32, x32 := Cast[float32](a), Cast[float32](x)
	dst := NewOf[float32](128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, a32, x32)
	}
}

func BenchmarkMatMulTransBInto32(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(3))
	a, x := benchPair(rng, 128)
	a32, x32 := Cast[float32](a), Cast[float32](x)
	dst := NewOf[float32](128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTransBInto(dst, a32, x32)
	}
}

package sparse

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"trail/internal/mat"
)

// TestLazyCachesConcurrentFirstUse hammers every lazily-built cache on a
// fresh CSR — the tOnce transpose, the three normalisation caches and
// the reordering cache — from many goroutines at once, asserting they
// all observe the same cached object and (under -race) that first-use
// publication is clean. `trail serve` will hit exactly this pattern:
// one shared CSR snapshot, many request goroutines deriving operators.
func TestLazyCachesConcurrentFirstUse(t *testing.T) {
	defer func(old int) { ReorderMinRows = old }(ReorderMinRows)
	ReorderMinRows = 10

	rng := rand.New(rand.NewSource(41))
	adj := randAdj(rng, 200, 600)
	x := mat.RandUniformOf[float64](rng, 200, 6, 1)

	const goroutines = 16
	s := FromAdj(adj)
	var (
		wg    sync.WaitGroup
		start = make(chan struct{})
		syms  [goroutines]*Matrix
		loops [goroutines]*Matrix
		means [goroutines]*Matrix
		reord [goroutines]*Matrix
		trans [goroutines]*mat.Matrix
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			syms[g] = s.SymNormalized()
			loops[g] = s.SymNormalizedWithSelfLoops()
			means[g] = s.MeanNormalized()
			reord[g], _ = s.Reordered()
			// SpMMTransInto builds the tOnce transpose on first use; doing a
			// real multiply also exercises the sargs pool concurrently.
			trans[g] = s.MulTrans(x)
		}(g)
	}
	close(start)
	wg.Wait()

	for g := 1; g < goroutines; g++ {
		if syms[g] != syms[0] || loops[g] != loops[0] || means[g] != means[0] || reord[g] != reord[0] {
			t.Fatalf("goroutine %d observed a different cached operator", g)
		}
		for i := range trans[0].Data {
			if math.Float64bits(trans[g].Data[i]) != math.Float64bits(trans[0].Data[i]) {
				t.Fatalf("concurrent SpMMTransInto diverged at goroutine %d index %d", g, i)
			}
		}
	}
}

// TestLazyCachesConcurrentFloat32 repeats the concurrent first-use check
// at the float32 instantiation, whose caches are distinct generic code.
func TestLazyCachesConcurrentFloat32(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	s := Cast[float32](FromAdj(randAdj(rng, 150, 450)))
	x := mat.RandUniformOf[float32](rng, 150, 5, 1)

	const goroutines = 12
	var (
		wg    sync.WaitGroup
		start = make(chan struct{})
		means [goroutines]*CSR[float32]
		outs  [goroutines]*mat.Dense[float32]
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			means[g] = s.MeanNormalized()
			outs[g] = means[g].MulTrans(x)
		}(g)
	}
	close(start)
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if means[g] != means[0] {
			t.Fatalf("goroutine %d observed a different cached float32 operator", g)
		}
		for i := range outs[0].Data {
			if outs[g].Data[i] != outs[0].Data[i] {
				t.Fatalf("concurrent float32 SpMMTransInto diverged at goroutine %d index %d", g, i)
			}
		}
	}
}

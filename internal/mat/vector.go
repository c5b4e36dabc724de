package mat

import "math"

// The reductions in this file accumulate in float64 regardless of the
// element type (see the package comment): a scalar accumulator costs no
// bandwidth, and float64 accumulation keeps the float32 path's losses,
// norms and softmax denominators close to the reference. For the float64
// instantiation every conversion below is the identity, so the generic
// code is bit-identical to the float64-only code it replaced.

// Dot returns the inner product of a and b, accumulated in float64. The
// slices must have equal length; the shorter length is used if they
// differ (callers in this repo always pass equal lengths, but slicing
// bugs should not read out of bounds).
func Dot[T Float](a, b []T) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	s := 0.0
	for i := 0; i < n; i++ {
		s += float64(a[i]) * float64(b[i])
	}
	return s
}

// Axpy computes y += alpha*x in place. This is a vector accumulation, so
// it runs in storage precision (it is exactly the buffer traffic the
// float32 path halves).
func Axpy[T Float](alpha T, x, y []T) {
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Norm2 returns the Euclidean norm of v, accumulated in float64.
func Norm2[T Float](v []T) float64 {
	s := 0.0
	for _, x := range v {
		s += float64(x) * float64(x)
	}
	return math.Sqrt(s)
}

// Sum returns the sum of the elements of v, accumulated in float64.
func Sum[T Float](v []T) float64 {
	s := 0.0
	for _, x := range v {
		s += float64(x)
	}
	return s
}

// Mean returns the arithmetic mean of v (0 for an empty slice).
func Mean[T Float](v []T) float64 {
	if len(v) == 0 {
		return 0
	}
	return Sum(v) / float64(len(v))
}

// Std returns the population standard deviation of v (0 for len < 2).
func Std[T Float](v []T) float64 {
	if len(v) < 2 {
		return 0
	}
	m := Mean(v)
	s := 0.0
	for _, x := range v {
		d := float64(x) - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(v)))
}

// Argmax returns the index of the largest element of v (-1 for empty).
// Ties resolve to the first maximal index.
func Argmax[T Float](v []T) int {
	if len(v) == 0 {
		return -1
	}
	best, bi := v[0], 0
	for i := 1; i < len(v); i++ {
		if v[i] > best {
			best, bi = v[i], i
		}
	}
	return bi
}

// Softmax writes the softmax of src into dst (they may alias) using the
// numerically stable max-shift formulation. Both slices must have the
// same length. Exponentials and the denominator accumulate in float64.
func Softmax[T Float](dst, src []T) {
	if len(src) == 0 {
		return
	}
	max := src[0]
	for _, v := range src[1:] {
		if v > max {
			max = v
		}
	}
	sum := 0.0
	for i, v := range src {
		e := math.Exp(float64(v - max))
		dst[i] = T(e)
		sum += e
	}
	if sum == 0 {
		uniform := T(1 / float64(len(dst)))
		for i := range dst {
			dst[i] = uniform
		}
		return
	}
	inv := T(1 / sum)
	for i := range dst {
		dst[i] *= inv
	}
}

// SoftmaxRows applies Softmax to every row of m in place and returns m.
func SoftmaxRows[T Float](m *Dense[T]) *Dense[T] {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		Softmax(row, row)
	}
	return m
}

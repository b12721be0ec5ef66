package main

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Inputs. Every payload value is a function of the run seed, the sending
// rank, the receiving rank, the block and the op index, so a block that
// arrives stale (an earlier op's data), misrouted (another pair's data) or
// torn fails the element-by-element check on the receiving rank. The
// library sees only these generated buffers.

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// blockBase is the first element of the block src sends to dst as block
// blk of op. Element e of the block holds blockBase+e. The value keeps 40
// bits, so it and every offset added to it are exact in an int64 and in a
// float64.
func blockBase(seed uint64, src, dst, blk, op int) int64 {
	h := mix(seed + 0x9e3779b97f4a7c15)
	for _, v := range [...]int{src, dst, blk, op} {
		h = mix(h ^ uint64(v+1)*0x9e3779b97f4a7c15)
	}
	return int64(h >> 24)
}

// fillBlock writes block values into b.
func fillBlock[T int64 | float64](b []T, base int64) {
	for e := range b {
		b[e] = T(base + int64(e))
	}
}

// blockOK reports whether b holds exactly the values fillBlock wrote.
func blockOK[T int64 | float64](b []T, base int64) bool {
	for e, v := range b {
		if v != T(base+int64(e)) {
			return false
		}
	}
	return true
}

// initialField returns the jacobi9 workload's global initial field,
// row-major nx×ny, uniform in [0,1) from the seed.
func initialField(seed uint64, nx, ny int) []float64 {
	rng := rand.New(rand.NewPCG(seed, 0x6a61636f6269)) // "jacobi"
	f := make([]float64, nx*ny)
	for i := range f {
		f[i] = rng.Float64()
	}
	return f
}

// plainJacobi9 is the single-rank baseline and oracle of the jacobi9
// workload: iters sweeps of the 9-point relaxation over a periodic nx×ny
// field, written as a plain loop with wrap-around indexing and no halo
// exchange. It sums in the same order as stencil.Jacobi9, so a correct
// distributed run reproduces it to rounding.
func plainJacobi9(field []float64, nx, ny, iters int) []float64 {
	src := append([]float64(nil), field...)
	dst := make([]float64, len(src))
	for it := 0; it < iters; it++ {
		for i := 0; i < nx; i++ {
			up := src[((i-1+nx)%nx)*ny:][:ny]
			mid := src[i*ny:][:ny]
			dn := src[((i+1)%nx)*ny:][:ny]
			out := dst[i*ny:][:ny]
			cell := func(jl, j, jr int) float64 {
				edge := up[j] + dn[j] + mid[jl] + mid[jr]
				corner := up[jl] + up[jr] + dn[jl] + dn[jr]
				return (4*edge + corner) / 20
			}
			out[0] = cell(ny-1, 0, 1)
			for j := 1; j < ny-1; j++ {
				out[j] = cell(j-1, j, j+1)
			}
			out[ny-1] = cell(ny-2, ny-1, 0)
		}
		src, dst = dst, src
	}
	return src
}

// fieldTolerance bounds the relative difference accepted between the
// distributed field and the plain baseline. Both sum in the same order, so
// a correct run differs only if the compiler fuses operations differently;
// one stale or misplaced halo cell differs by many orders of magnitude
// more.
const fieldTolerance = 1e-12

// compareField checks a rank's local block (origin r0, c0 in the global
// field) against the baseline and returns the first mismatch.
func compareField(local func(i, j int) float64, nxLoc, nyLoc, r0, c0 int, want []float64, ny int) error {
	for i := 0; i < nxLoc; i++ {
		for j := 0; j < nyLoc; j++ {
			got, w := local(i, j), want[(r0+i)*ny+c0+j]
			if math.Abs(got-w) > fieldTolerance*math.Max(1, math.Abs(w)) {
				return fmt.Errorf("jacobi9: cell (%d,%d) = %v, single-rank baseline %v", r0+i, c0+j, got, w)
			}
		}
	}
	return nil
}

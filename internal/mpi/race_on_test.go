//go:build race

package mpi

// raceBuild reports a race-detector build: the detector's instrumentation
// allocates, so absolute allocation gates skip under it.
const raceBuild = true

package mpi

import (
	"fmt"
	"math/bits"
	"reflect"
	"sync"
	"unsafe"
)

// This file implements message payloads and the per-world, size-bucketed
// wire-buffer pools behind the non-contiguous send path. A gathered
// (packed) message draws its wire slice from the sending world's pool
// instead of the heap; the matching side returns the slice after the
// scatter. Contiguous messages never touch the pool at all — they travel
// as subslices of the user buffer and are consumed at match time (see
// p2p.go).
//
// A payload is carried as a data pointer, a capacity and an element-type
// descriptor rather than a []T boxed in an interface, so a send boxes
// nothing. Pools are keyed by that descriptor (a []int32 can never be
// recycled as a []float64) and bucketed by capacity class (powers of two),
// mirroring the eager-buffer pools of real MPI implementations. A bucket
// entry is the unsafe.Pointer to a wire's first element — pointer-shaped,
// so Put stores it in the interface word without allocating — and the
// bucket's class fixes the capacity, so the typed generic path and the
// reflect-typed transport path share one set of buckets.

// elemType describes a payload element type: the identity a receiver
// checks a payload against (descriptors are canonical — one per type —
// so identity is pointer equality), the element size, and a typed copy
// for detaching zero-copy payloads (a plain byte copy would bypass the
// garbage collector's write barriers for pointer-bearing element types).
type elemType struct {
	rt   reflect.Type
	size uintptr
	copy func(dst, src unsafe.Pointer, n int)
}

// elemTypes maps reflect.Type to the canonical *elemType.
var elemTypes sync.Map

// elemTypeOf returns T's canonical descriptor.
func elemTypeOf[T any]() *elemType {
	rt := reflect.TypeOf((*T)(nil)).Elem()
	if v, ok := elemTypes.Load(rt); ok {
		return v.(*elemType)
	}
	v, _ := elemTypes.LoadOrStore(rt, &elemType{
		rt:   rt,
		size: rt.Size(),
		copy: func(dst, src unsafe.Pointer, n int) {
			copy(unsafe.Slice((*T)(dst), n), unsafe.Slice((*T)(src), n))
		},
	})
	return v.(*elemType)
}

// elemTypeFor is elemTypeOf for a runtime type — the transport's decoded
// payloads, whose element types are the wire codec's plain-old-data
// types, so a byte copy is a correct typed copy.
func elemTypeFor(rt reflect.Type) *elemType {
	if v, ok := elemTypes.Load(rt); ok {
		return v.(*elemType)
	}
	size := rt.Size()
	v, _ := elemTypes.LoadOrStore(rt, &elemType{
		rt:   rt,
		size: size,
		copy: func(dst, src unsafe.Pointer, n int) {
			nb := uintptr(n) * size
			copy(unsafe.Slice((*byte)(dst), nb), unsafe.Slice((*byte)(src), nb))
		},
	})
	return v.(*elemType)
}

// setPayload points m's payload at s.
func setPayload[T any](m *message, s []T, et *elemType) {
	m.pay, m.pcap, m.elems, m.ptype = unsafe.Pointer(unsafe.SliceData(s)), cap(s), len(s), et
}

// payloadAs returns m's payload as a []T, or false when the element type
// differs.
func payloadAs[T any](m *message, et *elemType) ([]T, bool) {
	if m.ptype != et {
		return nil, false
	}
	if m.pay == nil {
		return nil, true
	}
	return unsafe.Slice((*T)(m.pay), m.pcap)[:m.elems:m.elems], true
}

// payloadBytes returns the raw bytes of m's payload without copying; the
// view aliases the payload.
func payloadBytes(m *message) []byte {
	if m.pay == nil || m.ptype == nil {
		return nil
	}
	return unsafe.Slice((*byte)(m.pay), uintptr(m.elems)*m.ptype.size)
}

// payloadTypeName renders m's payload type for a mismatch diagnostic.
func payloadTypeName(m *message) string {
	if m.ptype == nil {
		return "nothing"
	}
	return "[]" + m.ptype.rt.String()
}

// typeMismatch is the receive-side error for a payload of the wrong
// element type.
func typeMismatch[T any](m *message) error {
	return fmt.Errorf("mpi: type mismatch: received %s, receiver expects []%T", payloadTypeName(m), *new(T))
}

// clonePayload gives m a private copy of its payload, for duplicate
// injection. Runs only on the injected fault path, never on the hot path.
func clonePayload(m *message) {
	if m.ptype == nil || m.elems == 0 {
		return
	}
	v := reflect.MakeSlice(reflect.SliceOf(m.ptype.rt), m.elems, m.elems)
	dst := v.UnsafePointer()
	m.ptype.copy(dst, m.pay, m.elems)
	m.pay, m.pcap = dst, m.elems
}

// wireMaxClass bounds pooled capacities at 1<<wireMaxClass elements;
// larger wires are plainly allocated and never pooled (at that size the
// copy dominates the allocation anyway).
const wireMaxClass = 24

// wirePool is the per-element-type bucket array. Bucket c holds the data
// pointers of wires with capacity exactly 1<<c.
type wirePool struct {
	buckets [wireMaxClass + 1]sync.Pool
}

// wireClass returns the bucket class for a wire of n elements: the
// smallest c with 1<<c >= n.
func wireClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// wirePoolFor returns the world's pool for element type et, creating it
// on first use.
func (w *World) wirePoolFor(et *elemType) *wirePool {
	if v, ok := w.wirePools.Load(et); ok {
		return v.(*wirePool)
	}
	v, _ := w.wirePools.LoadOrStore(et, &wirePool{})
	return v.(*wirePool)
}

// getWireRaw returns the data pointer of a wire of at least n elements of
// type et with pool-shaped capacity 1<<class(n), recycled from the world's
// pool when a bucket entry is available; pooled reports whether it was
// (the wire-pool hit/miss metric). The caller sizes a miss with make.
func (w *World) getWireRaw(et *elemType, n int) (p unsafe.Pointer, capacity int, pooled bool) {
	w.wireOut.Add(1)
	cl := wireClass(n)
	if cl > wireMaxClass {
		return nil, n, false
	}
	if v := w.wirePoolFor(et).buckets[cl].Get(); v != nil {
		return v.(unsafe.Pointer), 1 << cl, true
	}
	return nil, 1 << cl, false
}

// getWire returns a wire slice of n elements, recycled from the world's
// pool when a bucket entry is available; pooled reports whether it was.
// The contents are unspecified; every caller fully overwrites the slice
// (Gather, copy).
func getWire[T any](w *World, n int) (wire []T, pooled bool) {
	p, c, pooled := w.getWireRaw(elemTypeOf[T](), n)
	if p == nil {
		return make([]T, n, c), false
	}
	return unsafe.Slice((*T)(p), c)[:n], true
}

// putWire returns a wire's storage to the world's pool; capacities that
// are not pool-shaped are left to the garbage collector.
func (w *World) putWire(et *elemType, p unsafe.Pointer, c int) {
	w.wireOut.Add(-1)
	if p == nil || c == 0 || c&(c-1) != 0 {
		return // not a pool-shaped capacity; let the GC have it
	}
	cl := wireClass(c)
	if cl > wireMaxClass {
		return
	}
	w.wirePoolFor(et).buckets[cl].Put(p)
}

// releaseWire returns a pooled message payload to its world's pool. It is
// installed as message.release by the pooled send path and by the
// transport's decoder, and invoked exactly once, at the single point a
// message is consumed or discarded before delivery; the caller clears
// m.release beforehand, so a payload can never be pooled twice.
func releaseWire(w *World, m *message) {
	if m.ptype == nil {
		return
	}
	w.putWire(m.ptype, m.pay, m.pcap)
	m.pay, m.pcap = nil, 0
}

// detachWire detaches a zero-copy message from the sender's user buffer:
// the payload is copied into a pooled wire so the alias dies before the
// send call returns. Installed as message.detach by the contiguous send
// path and invoked by the mailbox when the message must outlive delivery
// (no matching receive was posted yet).
func detachWire(w *World, m *message) {
	et := m.ptype
	if et == nil {
		return
	}
	p, c, _ := w.getWireRaw(et, m.elems)
	if p == nil {
		p = reflect.MakeSlice(reflect.SliceOf(et.rt), c, c).UnsafePointer()
	}
	if m.elems > 0 {
		et.copy(p, m.pay, m.elems)
	}
	m.pay, m.pcap = p, c
	m.release = releaseWire
}

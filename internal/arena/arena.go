// Package arena provides a tiny typed bump allocator for device state.
// Every sim.Machine gives its DRAM device an Arena; the device resets it on
// every pipeline rebuild and re-carves the tracker tables, victim buffers,
// and PRNGs from it, so (a) the whole device-side state sits in a handful
// of contiguous slabs instead of hundreds of scattered heap objects, and
// (b) repeated warm-machine Resets carve nothing from the heap — the slabs
// grow to the configuration's working set once and are then reused
// verbatim. The per-bank tracker and policy structs are not carved: the
// built-in factories rebuild each bank's previous ones in place (see
// tracker.Env.Prev), so a warm Reset of a registry-built device allocates
// nothing at all (pinned by dram's TestDeviceWarmResetAllocs).
//
// An Arena is not a lifetime system: Reset invalidates every carving at
// once, which matches the device's use exactly (Reset discards the whole
// pipeline before rebuilding it). Nothing here is concurrency-safe; an
// Arena belongs to one machine.
package arena

import "autorfm/internal/rng"

// Slab is a bump allocator over one element type. The zero value is ready
// to use.
type Slab[T any] struct {
	buf []T
	off int
}

// Take carves n zeroed elements. The returned slice has length and capacity
// exactly n (appends beyond it spill to the heap instead of clobbering the
// next carving). Growing the slab abandons the old backing array — earlier
// carvings from this cycle stay valid, they just aren't contiguous with the
// new ones; after the next Reset the slab reuses the grown array.
func (s *Slab[T]) Take(n int) []T {
	if s.off+n > len(s.buf) {
		size := 2 * len(s.buf)
		if size < s.off+n {
			size = s.off + n
		}
		s.buf = make([]T, size)
		s.off = 0
	}
	v := s.buf[s.off : s.off+n : s.off+n]
	s.off += n
	var zero T
	for i := range v {
		v[i] = zero
	}
	return v
}

// Reset invalidates all carvings, making the slab's full capacity available
// again.
func (s *Slab[T]) Reset() { s.off = 0 }

// Arena bundles the slab types the device pipeline needs.
type Arena struct {
	U32 Slab[uint32]
	I32 Slab[int32]
	I64 Slab[int64]
	Src Slab[rng.Source]
}

// Reset invalidates every carving from all slabs.
func (a *Arena) Reset() {
	a.U32.Reset()
	a.I32.Reset()
	a.I64.Reset()
	a.Src.Reset()
}

// Uint32s carves n zeroed uint32s from a, or heap-allocates when a is nil —
// callers thread an optional arena without branching.
func Uint32s(a *Arena, n int) []uint32 {
	if a == nil {
		return make([]uint32, n)
	}
	return a.U32.Take(n)
}

// Int32s is Uint32s for int32 elements.
func Int32s(a *Arena, n int) []int32 {
	if a == nil {
		return make([]int32, n)
	}
	return a.I32.Take(n)
}

// Int64s is Uint32s for int64 elements.
func Int64s(a *Arena, n int) []int64 {
	if a == nil {
		return make([]int64, n)
	}
	return a.I64.Take(n)
}

// Source carves a PRNG seeded with seed from a, or heap-allocates when a is
// nil. Carved Sources are contiguous in bank order, so a device's per-bank
// PRNG state shares cache lines instead of scattering across the heap.
func Source(a *Arena, seed uint64) *rng.Source {
	if a == nil {
		return rng.New(seed)
	}
	s := &a.Src.Take(1)[0]
	s.Seed(seed)
	return s
}

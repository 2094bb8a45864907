// Package hashtab is the simulator's one open-addressed hash table, used
// where a Go map would sit on a hot path: the LLC's outstanding-fill table
// and prefetch recency window, and the counter trackers' row indexes. It
// probes linearly from a Fibonacci-hashed home slot and deletes by
// backward shift, so there are no tombstones, no per-entry heap objects
// and no hashing interface, and a warm Init or Clear reuses the array.
package hashtab

import "math/bits"

// fib is 2^64 divided by the golden ratio. The high bits of k*fib index
// the table; the low bits of such a product are weak.
const fib = 0x9e3779b97f4a7c15

// Map maps keys to values. A key is stored plus one, so a zero key marks an
// empty slot; the largest key of K can be looked up (it is never present)
// but not stored. Each slot holds its key and value side by side, so a hit
// reads one host cache line, the table is one allocation, and a struct{}
// value type, which makes a Map a set, adds nothing to a slot. The table
// keeps its load at or below one half, doubling when a Put would pass it.
//
// A Map must be Init'd before use. Lookups do not check for that, which
// keeps Get and Has small enough to inline into their hot callers.
type Map[K ~uint32 | ~uint64, V any] struct {
	slots []slot[K, V]
	shift uint // 64 - log2(len(slots))
	n     int
}

type slot[K ~uint32 | ~uint64, V any] struct {
	v V // first: a trailing zero-size field would be padded
	k K // the key plus one; 0 when the slot is empty
}

// Init empties m and sizes it for capHint entries: at least 4×capHint
// slots (16 at least), so capHint entries fill a quarter of it. It keeps
// an array already that large, a grown one included; which entries a
// lookup finds does not depend on the table size, only the probe order
// does.
func (m *Map[K, V]) Init(capHint int) {
	size := 16
	for size < 4*capHint {
		size <<= 1
	}
	if len(m.slots) >= size {
		m.Clear()
		return
	}
	m.slots = make([]slot[K, V], size)
	m.shift = 64 - uint(bits.TrailingZeros(uint(size)))
	m.n = 0
}

func (m *Map[K, V]) home(k K) uint64 { return uint64(k) * fib >> m.shift }

// Get returns the value stored under k and whether there is one.
func (m *Map[K, V]) Get(k K) (v V, ok bool) {
	for i := m.home(k); ; i = (i + 1) & uint64(len(m.slots)-1) {
		switch e := &m.slots[i]; e.k {
		case 0: // first: k+1 is 0 for the largest key
			return
		case k + 1:
			return e.v, true
		}
	}
}

// Has reports whether k is present.
func (m *Map[K, V]) Has(k K) bool {
	_, ok := m.Get(k)
	return ok
}

// Put stores v under k, replacing any value k had. It panics on the
// largest key of K.
func (m *Map[K, V]) Put(k K, v V) {
	s := k + 1
	if s == 0 {
		panic("hashtab: the largest key cannot be stored")
	}
	if 2*(m.n+1) > len(m.slots) {
		m.grow()
	}
	mask := uint64(len(m.slots) - 1)
	for i := m.home(k); ; i = (i + 1) & mask {
		switch m.slots[i].k {
		case 0:
			m.slots[i] = slot[K, V]{v, s}
			m.n++
			return
		case s:
			m.slots[i].v = v
			return
		}
	}
}

// Delete removes k, if present. Each later entry of the probe chain moves
// into the hole iff its own probe distance reaches back to it, which keeps
// every chain contiguous.
func (m *Map[K, V]) Delete(k K) {
	s, mask := k+1, uint64(len(m.slots)-1)
	i := m.home(k)
	for {
		c := m.slots[i].k
		if c == 0 {
			return
		}
		if c == s {
			break
		}
		i = (i + 1) & mask
	}
	for j := i; ; {
		j = (j + 1) & mask
		c := m.slots[j].k
		if c == 0 {
			break
		}
		if (j-m.home(c-1))&mask >= (j-i)&mask {
			m.slots[i] = m.slots[j]
			i = j
		}
	}
	m.slots[i] = slot[K, V]{}
	m.n--
}

// Clear empties m, keeping its array.
func (m *Map[K, V]) Clear() {
	if m.n > 0 {
		clear(m.slots)
		m.n = 0
	}
}

// Len returns the number of entries.
func (m *Map[K, V]) Len() int { return m.n }

// Drain empties m, calling f on each entry in slot order.
func (m *Map[K, V]) Drain(f func(K, V)) {
	if m.n == 0 {
		return
	}
	for i, e := range m.slots {
		if e.k != 0 {
			m.slots[i] = slot[K, V]{}
			f(e.k-1, e.v)
		}
	}
	m.n = 0
}

// grow doubles the table and reinserts every entry.
func (m *Map[K, V]) grow() {
	old := m.slots
	m.slots = make([]slot[K, V], 2*len(old))
	m.shift--
	mask := uint64(len(m.slots) - 1)
	for _, e := range old {
		if e.k == 0 {
			continue
		}
		i := m.home(e.k - 1)
		for m.slots[i].k != 0 {
			i = (i + 1) & mask
		}
		m.slots[i] = e
	}
}

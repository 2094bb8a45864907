package hashtab

import (
	"math/rand"
	"testing"
)

// keyPool returns the keys a differential run draws from: a dense run of
// small keys, keys spread over the whole range of K, the largest storable
// key, and keys whose home is the last slot of every table up to 1,024
// slots. Those last collide with one another at every size the run grows
// through, and their probe chains wrap round to slot 0.
func keyPool[K ~uint32 | ~uint64](r *rand.Rand) []K {
	var pool []K
	for k := K(0); k < 100; k++ {
		pool = append(pool, k)
	}
	for i := 0; i < 50; i++ {
		pool = append(pool, K(r.Uint64()))
	}
	pool = append(pool, ^K(0)-1)
	const top = 10 // bits of the hash that must all be ones
	for k, n := K(1), 0; n < 24; k += 7 {
		if uint64(k)*fib>>(64-top) == 1<<top-1 {
			pool = append(pool, k)
			n++
		}
	}
	return pool
}

// checkAgainst requires m to hold exactly the entries of ref, and every
// entry of m to sit at the end of a contiguous probe chain from its home.
// It reports whether some chain wraps past the last slot.
func checkAgainst[K ~uint32 | ~uint64](t *testing.T, m *Map[K, int], ref map[K]int, pool []K) (wrapped bool) {
	t.Helper()
	if m.Len() != len(ref) {
		t.Fatalf("Len = %d, reference holds %d", m.Len(), len(ref))
	}
	for _, k := range append(pool, ^K(0)) {
		v, ok := m.Get(k)
		want, wantOK := ref[k]
		if ok != wantOK || v != want || m.Has(k) != wantOK {
			t.Fatalf("Get(%d) = %d, %v (Has %v); reference %d, %v", k, v, ok, m.Has(k), want, wantOK)
		}
	}
	mask := uint64(len(m.slots) - 1)
	n := 0
	for i, e := range m.slots {
		if e.k == 0 {
			continue
		}
		n++
		h := m.home(e.k - 1)
		for j := h; j != uint64(i); j = (j + 1) & mask {
			if m.slots[j].k == 0 {
				t.Fatalf("key %d at slot %d: its chain from home %d has a hole at %d", e.k-1, i, h, j)
			}
		}
		if h > uint64(i) {
			wrapped = true
		}
	}
	if n != len(ref) {
		t.Fatalf("%d occupied slots, reference holds %d", n, len(ref))
	}
	return wrapped
}

// testMatchesMap drives a Map and a Go map with one random mix of Put,
// Delete, Clear, Drain and warm Init over colliding keys, and requires the
// same contents after every step.
func testMatchesMap[K ~uint32 | ~uint64](t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	pool := keyPool[K](r)
	var m Map[K, int]
	m.Init(2)
	ref := map[K]int{}
	wrapped, grown := false, false
	for step := 0; step < 100_000; step++ {
		k := pool[r.Intn(len(pool))]
		switch op := r.Intn(1000); {
		case op < 600:
			m.Put(k, step)
			ref[k] = step
		case op < 995:
			m.Delete(k)
			delete(ref, k)
		case op < 997:
			got := map[K]int{}
			m.Drain(func(k K, v int) {
				if _, dup := got[k]; dup {
					t.Fatalf("step %d: Drain visited %d twice", step, k)
				}
				got[k] = v
			})
			if len(got) != len(ref) {
				t.Fatalf("step %d: Drain visited %d entries, reference holds %d", step, len(got), len(ref))
			}
			for k, v := range ref {
				if got[k] != v {
					t.Fatalf("step %d: Drain gave %d for %d, reference %d", step, got[k], k, v)
				}
			}
			clear(ref)
		case op < 999:
			m.Clear()
			clear(ref)
		default:
			m.Init(r.Intn(8))
			clear(ref)
		}
		grown = grown || len(m.slots) > 16
		if step%97 == 0 || step < 1000 {
			wrapped = checkAgainst(t, &m, ref, pool) || wrapped
		} else {
			want, wantOK := ref[k]
			if v, ok := m.Get(k); ok != wantOK || v != want {
				t.Fatalf("step %d: Get(%d) = %d, %v; reference %d, %v", step, k, v, ok, want, wantOK)
			}
		}
	}
	if !wrapped || !grown {
		t.Fatalf("the run never wrapped a probe chain (%v) or grew the table (%v)", wrapped, grown)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Put of the largest key did not panic")
		}
	}()
	m.Put(^K(0), 0)
}

func TestMapMatchesMap(t *testing.T) {
	t.Run("uint32", func(t *testing.T) { testMatchesMap[uint32](t, 1) })
	t.Run("uint64", func(t *testing.T) { testMatchesMap[uint64](t, 2) })
}

// TestMapZeroAllocs pins warm reuse: once a Map has grown, a warm Init,
// a refill and a Clear allocate nothing, for a map and for a set.
func TestMapZeroAllocs(t *testing.T) {
	var m Map[uint32, int32]
	var s Map[uint64, struct{}]
	fill := func() {
		for k := uint32(0); k < 200; k++ {
			m.Put(k*7919, int32(k))
			s.Put(uint64(k)<<40, struct{}{})
		}
	}
	m.Init(16)
	s.Init(16)
	fill() // grows both past what Init(16) sized
	allocs := testing.AllocsPerRun(100, func() {
		m.Init(16)
		s.Init(16)
		fill()
		m.Clear()
		s.Clear()
		fill()
		for k := uint32(0); k < 200; k += 2 {
			m.Delete(k * 7919)
			s.Delete(uint64(k) << 40)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Init, refill and Clear allocate %.1f objects per run, want 0", allocs)
	}
}

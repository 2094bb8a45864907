package runner

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"autorfm/internal/sim"
)

// run simulates c directly, failing the test on error.
func run(t testing.TB, c sim.Config) sim.Result {
	t.Helper()
	res, err := sim.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// line renders one store record as its JSON line. It spells the wire
// format out independently of the record type, so a change to the type
// that would break files written by earlier binaries fails these tests.
func line(t testing.TB, key string, res sim.Result) string {
	t.Helper()
	buf, err := json.Marshal(struct {
		Key    string     `json:"key"`
		Result sim.Result `json:"result"`
	}{key, res})
	if err != nil {
		t.Fatal(err)
	}
	return string(buf) + "\n"
}

// openWith writes data to a fresh store file and opens it.
func openWith(t testing.TB, data string) (*Store, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.jsonl")
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, path
}

// TestStoreRecovery: the table of damaged and contested store files the
// loader must recover from — a torn trailing line (writer killed
// mid-append), a key written twice (last write wins), records from two
// interleaved concurrent writers, and a stale key from an incompatible
// Key() schema.
func TestStoreRecovery(t *testing.T) {
	a := run(t, cfg(t, "bwaves", nil))
	b := run(t, cfg(t, "mcf", nil))
	aKey, bKey := a.Config.Key(), b.Config.Key()

	// A same-key record with visibly different content, standing in for a
	// record from an earlier (pre-crash) run.
	aStale := a
	aStale.Elapsed = a.Elapsed + 12345

	cases := []struct {
		name string
		data string
		want map[string]sim.Result
	}{
		{
			name: "torn trailing line",
			data: line(t, aKey, a) + line(t, bKey, b)[:20],
			want: map[string]sim.Result{aKey: a},
		},
		{
			name: "duplicated key, last write wins",
			data: line(t, aKey, aStale) + line(t, bKey, b) + line(t, aKey, a),
			want: map[string]sim.Result{aKey: a, bKey: b},
		},
		{
			name: "interleaved records from two writers",
			// Writer 1 appended a, writer 2 appended b, then both appended
			// again — line-granular interleaving is the contract O_APPEND
			// single-Write lines buy us.
			data: line(t, aKey, a) + line(t, bKey, b) + line(t, bKey, b) + line(t, aKey, a),
			want: map[string]sim.Result{aKey: a, bKey: b},
		},
		{
			name: "stale key skipped",
			// A record whose stored key does not match its config's
			// recomputed Key() — e.g. written under an older key schema —
			// must be skipped, not loaded under either key.
			data: strings.Replace(line(t, aKey, a), `"key":"`, `"key":"old-schema `, 1) + line(t, bKey, b),
			want: map[string]sim.Result{bKey: b},
		},
		{
			name: "garbage line between records",
			data: line(t, aKey, a) + "not json at all\n" + line(t, bKey, b),
			want: map[string]sim.Result{aKey: a, bKey: b},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := openWith(t, tc.data)
			if s.Len() != len(tc.want) {
				t.Fatalf("loaded %d results, want %d (keys: %v)", s.Len(), len(tc.want), s.Keys())
			}
			for key, want := range tc.want {
				got, ok := s.Get(key)
				if !ok {
					t.Fatalf("key %q missing after recovery", key)
				}
				if got.Elapsed != want.Elapsed {
					t.Errorf("key %q: got elapsed %d, want %d", key, got.Elapsed, want.Elapsed)
				}
			}
		})
	}
}

// TestStoreAppendAfterTornTail is the regression test for records lost
// behind a torn tail: a writer that died mid-append leaves the file
// without a final newline, and the next record appended must start on a
// fresh line rather than extend the fragment into one unparsable line.
func TestStoreAppendAfterTornTail(t *testing.T) {
	a := run(t, cfg(t, "bwaves", nil))
	b := run(t, cfg(t, "mcf", nil))
	bLine := line(t, b.Config.Key(), b)

	s, path := openWith(t, line(t, a.Config.Key(), a)+bLine[:len(bLine)/2])
	if ok, err := s.Put(b.Config.Key(), b); err != nil || !ok {
		t.Fatalf("Put after torn tail: ok=%v err=%v", ok, err)
	}
	s.Close()

	reopened, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.Len() != 2 {
		t.Fatalf("reopened store holds %d results, want 2 (keys: %v)", reopened.Len(), reopened.Keys())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(string(data), "\n"+bLine) {
		t.Errorf("appended record does not sit on its own line")
	}
}

// TestStorePutFirstWriteWins: Put dedups by key — the second Put of a key
// neither replaces the index entry nor appends a line — and writes exactly
// the wire format earlier binaries wrote.
func TestStorePutFirstWriteWins(t *testing.T) {
	s, path := openWith(t, "")

	a := run(t, cfg(t, "bwaves", nil))
	key := a.Config.Key()
	later := a
	later.Elapsed++

	if ok, err := s.Put(key, a); err != nil || !ok {
		t.Fatalf("first Put: ok=%v err=%v", ok, err)
	}
	if ok, err := s.Put(key, later); err != nil || ok {
		t.Fatalf("duplicate Put: ok=%v err=%v, want a silent no-op", ok, err)
	}
	if _, err := s.Put("", a); err == nil {
		t.Fatal("Put with empty key succeeded; want rejection")
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != line(t, key, a) {
		t.Fatalf("store file after duplicate Put is not exactly one record line:\n%s", data)
	}
	got, _ := s.Get(key)
	if got.Elapsed != a.Elapsed {
		t.Errorf("duplicate Put replaced the stored result")
	}
}

// TestStoreConcurrentWritersSharedFile: two Store handles on the same path
// (an autorfm-bench and an autorfm-sim run sharing one -store file)
// interleave whole lines; reopening recovers every key.
func TestStoreConcurrentWritersSharedFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	s1, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}

	seeds := make([]sim.Result, 8)
	for i := range seeds {
		seeds[i] = run(t, cfg(t, "bwaves", func(c *sim.Config) { c.Seed = uint64(i + 1) }))
	}
	var wg sync.WaitGroup
	for i, res := range seeds {
		wg.Add(1)
		s := s1
		if i%2 == 1 {
			s = s2
		}
		go func(s *Store, res sim.Result) {
			defer wg.Done()
			if _, err := s.Put(res.Config.Key(), res); err != nil {
				t.Error(err)
			}
		}(s, res)
	}
	wg.Wait()
	s1.Close()
	s2.Close()

	reopened, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.Len() != len(seeds) {
		t.Fatalf("recovered %d results from interleaved writers, want %d", reopened.Len(), len(seeds))
	}
	for _, res := range seeds {
		got, ok := reopened.Get(res.Config.Key())
		if !ok || got.Elapsed != res.Elapsed {
			t.Errorf("seed %d: got ok=%v elapsed=%d, want %d", res.Config.Seed, ok, got.Elapsed, res.Elapsed)
		}
	}
}

// TestStoreKeysSorted is a small contract check for tooling that diffs
// stores.
func TestStoreKeysSorted(t *testing.T) {
	s := NewMemStore()
	for i := 5; i > 0; i-- {
		res := run(t, cfg(t, "bwaves", func(c *sim.Config) { c.Seed = uint64(i) }))
		if _, err := s.Put(res.Config.Key(), res); err != nil {
			t.Fatal(err)
		}
	}
	keys := s.Keys()
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("Keys() not sorted at %d: %q >= %q", i, keys[i-1], keys[i])
		}
	}
	if len(keys) != 5 {
		t.Fatalf("got %d keys, want 5", len(keys))
	}
}

// FuzzStoreLoad: loading arbitrary bytes never panics, every record kept
// is filed under its config's recomputed Key(), and the loader notices an
// unterminated final line.
func FuzzStoreLoad(f *testing.F) {
	res := sim.Result{Config: cfg(f, "bwaves", nil)} // no need to simulate
	valid := line(f, res.Config.Key(), res)
	f.Add([]byte(valid))
	f.Add([]byte(valid + valid[:len(valid)/2]))
	f.Add([]byte(strings.Replace(valid, `"key":"`, `"key":"stale `, 1)))
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewMemStore()
		if err := s.load(bytes.NewReader(data)); err != nil {
			return // only an over-long line; nothing to check
		}
		for key, res := range s.idx {
			if got := res.Config.Key(); got != key {
				t.Fatalf("record filed under %q, but its config's key is %q", key, got)
			}
		}
		if want := len(data) > 0 && data[len(data)-1] != '\n'; s.torn != want {
			t.Fatalf("torn = %v, want %v", s.torn, want)
		}
	})
}

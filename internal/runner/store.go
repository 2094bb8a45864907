package runner

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"autorfm/internal/sim"
)

// record is one store line: {"key":K,"result":R}, one JSON object per
// line. The key is stored redundantly — it is recomputable from the config
// inside the result — so loading can verify each line against the current
// Key() schema and skip stale records instead of poisoning the memo table.
type record struct {
	Key    string     `json:"key"`
	Result sim.Result `json:"result"`
}

// Store is a content-addressed result store: a durable memo table mapping
// canonical config keys (sim.Config.Key) to completed simulation results,
// backed by an append-only JSON-lines file. One file serves many sweeps,
// front ends, and restarts, because keys — not sweep identity — address
// the results: a Pool serves its records as cache hits and appends every
// new simulation to it (Pool.Store).
//
// Durability model: appends are a single Write of one fully formed line
// (O_APPEND), so concurrent writers interleave at line granularity and a
// crash mid-write tears at most the final line. Loading tolerates both:
// unparsable lines are skipped, and a key appearing on several lines
// resolves last-write-wins (results are deterministic per key, so any
// intact line is equally correct). A file that ends in a torn line gets
// its next record on a fresh line, so the fragment costs only itself. At
// runtime Put is first-write-wins: a key already present is not rewritten,
// which keeps restarted sweeps from bloating the file.
//
// A Store is safe for concurrent use by multiple goroutines.
type Store struct {
	mu   sync.Mutex
	f    *os.File // nil for memory-only stores
	torn bool     // the file's last line is unterminated
	idx  map[string]sim.Result
}

// OpenStore opens (creating if absent) the store file at path and loads
// every intact record into memory; Len reports how many.
func OpenStore(path string) (*Store, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runner: opening store: %w", err)
	}
	s := &Store{f: f, idx: make(map[string]sim.Result)}
	if err := s.load(f); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// NewMemStore returns a store with no backing file, for tests and callers
// that keep no durable state.
func NewMemStore() *Store {
	return &Store{idx: make(map[string]sim.Result)}
}

// load merges every intact record from r into the index, last-write-wins,
// and notes whether the stream ended in an unterminated line. Malformed
// lines (typically one record torn when a writing process died
// mid-append) and records whose stored key does not match their config's
// recomputed Key() are skipped. An error is returned only when reading
// from r itself fails.
func (s *Store) load(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		adv, tok, err := bufio.ScanLines(data, atEOF)
		if atEOF && adv == len(data) && adv > 0 {
			s.torn = data[adv-1] != '\n'
		}
		return adv, tok, err
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			continue
		}
		if rec.Key == "" || rec.Result.Config.Key() != rec.Key {
			continue
		}
		s.idx[rec.Key] = rec.Result // last write wins
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("runner: reading store: %w", err)
	}
	return nil
}

// Get returns the stored result for key, if any.
func (s *Store) Get(key string) (sim.Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	res, ok := s.idx[key]
	return res, ok
}

// Put stores the result under key if the key is not already present,
// appending one record to the backing file. It reports whether the result
// was newly added: false means an equal result was already stored
// (first-write-wins — results are deterministic per key) and nothing was
// written. An empty key is rejected: such configs are not content-
// addressable.
func (s *Store) Put(key string, res sim.Result) (bool, error) {
	if key == "" {
		return false, fmt.Errorf("runner: cannot store a result with an empty config key")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.idx[key]; ok {
		return false, nil
	}
	if s.f != nil {
		// Marshal the whole line first so the append is a single Write of a
		// fully formed record: concurrent writers interleave at line
		// granularity, and a crash tears at most this one line.
		buf, err := json.Marshal(record{Key: key, Result: res})
		if err != nil {
			return false, fmt.Errorf("runner: encoding result %q: %w", key, err)
		}
		if s.torn {
			buf = append([]byte{'\n'}, buf...)
		}
		if _, err := s.f.Write(append(buf, '\n')); err != nil {
			// The write may have landed in part; start the next on a
			// fresh line (an empty line is skipped on load).
			s.torn = true
			return false, fmt.Errorf("runner: appending to store: %w", err)
		}
		s.torn = false
	}
	s.idx[key] = res
	return true, nil
}

// Len returns how many distinct results the store holds.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.idx)
}

// Keys returns the stored config keys in sorted order.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.idx))
	for k := range s.idx {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Close releases the backing file. The in-memory index stays readable.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}

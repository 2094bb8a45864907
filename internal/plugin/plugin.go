package plugin

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// ParamSpec documents one parameter a registered implementation accepts.
type ParamSpec struct {
	// Name is the key accepted inside the spec's parentheses.
	Name string
	// Default renders in catalog listings; use "" when the default is
	// context-dependent (e.g. "the configured TH").
	Default string
	// Doc is a one-line description of the parameter.
	Doc string
}

// Info describes a registered implementation for catalogs and errors.
type Info struct {
	// Name is the selector the implementation registers under.
	Name string
	// Doc is a one-line description shown by -list-plugins.
	Doc string
	// Params documents the accepted parameters, if any.
	Params []ParamSpec
}

// Spec is a parsed selector: a plugin name plus its parameters. The typed
// getters record the first conversion error and every key they ask for;
// Finish reports that error, or an unknown-parameter error for any key no
// getter asked for. One parsed spec drives many builds: Reset clears what
// the getters recorded before each one.
type Spec struct {
	// Name is the plugin name the spec selects.
	Name string

	params []param  // in spec order; never written after parsing
	asked  []string // every key a getter asked for, present or not
	err    error
}

type param struct{ key, val string }

// ParseSpec parses "name" or "name(key=value, key=value)". Names and keys
// are lowercase identifiers (letters, digits, '-', '_', '.'); values run to
// the next comma or closing parenthesis.
func ParseSpec(s string) (Spec, error) {
	s = strings.TrimSpace(s)
	name, params := s, ""
	if i := strings.IndexByte(s, '('); i >= 0 {
		if !strings.HasSuffix(s, ")") {
			return Spec{}, fmt.Errorf("plugin spec %q: missing ')'", s)
		}
		name, params = s[:i], s[i+1:len(s)-1]
	}
	name = strings.TrimSpace(name)
	if !validName(name) {
		return Spec{}, fmt.Errorf("plugin spec %q: invalid name %q", s, name)
	}
	sp := Spec{Name: name}
	if strings.TrimSpace(params) == "" {
		return sp, nil
	}
	for _, kv := range strings.Split(params, ",") {
		key, val, ok := strings.Cut(kv, "=")
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if !ok || key == "" || val == "" {
			return Spec{}, fmt.Errorf("plugin spec %q: parameter %q is not key=value", s, strings.TrimSpace(kv))
		}
		if !validName(key) {
			return Spec{}, fmt.Errorf("plugin spec %q: invalid parameter name %q", s, key)
		}
		if _, dup := sp.lookup(key); dup {
			return Spec{}, fmt.Errorf("plugin spec %q: duplicate parameter %q", s, key)
		}
		sp.params = append(sp.params, param{key, val})
	}
	return sp, nil
}

// ParseSpecs parses a comma-separated list of specs, e.g.
// "act-miss(p=0.01),chaos(p=0.5)". Commas inside parentheses separate
// parameters, not specs.
func ParseSpecs(s string) ([]Spec, error) {
	var out []Spec
	depth, start := 0, 0
	flush := func(end int) error {
		part := strings.TrimSpace(s[start:end])
		if part == "" {
			return fmt.Errorf("plugin specs %q: empty element", s)
		}
		sp, err := ParseSpec(part)
		if err != nil {
			return err
		}
		out = append(out, sp)
		return nil
	}
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				if err := flush(i); err != nil {
					return nil, err
				}
				start = i + 1
			}
		}
	}
	if err := flush(len(s)); err != nil {
		return nil, err
	}
	return out, nil
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
		default:
			return false
		}
	}
	return true
}

// Reset clears what the getters recorded — the keys they asked for and the
// first conversion error — so the spec can drive another build, which then
// runs the full Finish check. It keeps the bookkeeping's storage, so a
// factory that asks for the same keys every build allocates nothing after
// the first.
func (s *Spec) Reset() { s.asked, s.err = s.asked[:0], nil }

func (s *Spec) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// raw looks key up and records that a getter asked for it. A spec without
// parameters records nothing: it has no key to leave unread.
func (s *Spec) raw(key string) (string, bool) {
	if len(s.params) > 0 {
		s.asked = append(s.asked, key)
	}
	return s.lookup(key)
}

func (s *Spec) lookup(key string) (string, bool) {
	for _, p := range s.params {
		if p.key == key {
			return p.val, true
		}
	}
	return "", false
}

// Int consumes an integer parameter, returning def when absent.
func (s *Spec) Int(key string, def int) int {
	v, ok := s.raw(key)
	if !ok {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		s.fail(fmt.Errorf("parameter %s=%q: not an integer", key, v))
		return def
	}
	return n
}

// Int64 consumes a 64-bit integer parameter, returning def when absent.
func (s *Spec) Int64(key string, def int64) int64 {
	v, ok := s.raw(key)
	if !ok {
		return def
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		s.fail(fmt.Errorf("parameter %s=%q: not an integer", key, v))
		return def
	}
	return n
}

// Float consumes a float parameter, returning def when absent. NaN and the
// infinities are rejected: no plugin parameter has a meaningful use for
// them, and letting them through would defeat range checks downstream.
func (s *Spec) Float(key string, def float64) float64 {
	v, ok := s.raw(key)
	if !ok {
		return def
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || f != f || f > 1e308 || f < -1e308 {
		s.fail(fmt.Errorf("parameter %s=%q: not a finite number", key, v))
		return def
	}
	return f
}

// Bool consumes a boolean parameter ("true"/"false"), returning def when
// absent.
func (s *Spec) Bool(key string, def bool) bool {
	v, ok := s.raw(key)
	if !ok {
		return def
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		s.fail(fmt.Errorf("parameter %s=%q: not a boolean", key, v))
		return def
	}
	return b
}

// Finish reports the first conversion error a getter recorded, or an
// unknown-parameter error if the spec carried a key no getter consumed.
// Factories must call it after reading their parameters and before
// constructing, so a typo like "mithril(entrys=2048)" is a config-time
// error rather than a silently applied default.
func (s *Spec) Finish() error {
	if s.err != nil {
		return s.err
	}
	var unknown []string
	for _, p := range s.params {
		if !slices.Contains(s.asked, p.key) {
			unknown = append(unknown, p.key)
		}
	}
	if len(unknown) == 0 {
		return nil
	}
	if len(s.asked) == 0 {
		return fmt.Errorf("unknown parameter %q (takes no parameters)", slices.Min(unknown))
	}
	accepted := slices.Clone(s.asked)
	slices.Sort(accepted)
	accepted = slices.Compact(accepted)
	return fmt.Errorf("unknown parameter %q (accepted: %s)", slices.Min(unknown), strings.Join(accepted, ", "))
}

// Registry is a name-indexed set of implementations of one plugin kind.
// Register is called from init functions; all other methods are read-only
// and safe for concurrent use afterwards.
type Registry[F any] struct {
	kind string // "tracker", "policy", "fault injector" — used in errors

	mu      sync.RWMutex
	entries map[string]regEntry[F]
}

type regEntry[F any] struct {
	info    Info
	factory F
}

// NewRegistry returns an empty registry; kind names the plugin kind in
// error messages ("unknown tracker ...").
func NewRegistry[F any](kind string) *Registry[F] {
	return &Registry[F]{kind: kind, entries: make(map[string]regEntry[F])}
}

// Register adds an implementation under info.Name. Registering an invalid
// or duplicate name panics: registration runs at init time, so either is a
// programming error in the plugin, not a runtime condition.
func (r *Registry[F]) Register(info Info, factory F) {
	if !validName(info.Name) {
		panic(fmt.Sprintf("plugin: invalid %s name %q", r.kind, info.Name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[info.Name]; dup {
		panic(fmt.Sprintf("plugin: duplicate %s %q", r.kind, info.Name))
	}
	r.entries[info.Name] = regEntry[F]{info: info, factory: factory}
}

// Lookup returns the factory registered under name. The error lists the
// registered names, so a typo in a config is self-explanatory.
func (r *Registry[F]) Lookup(name string) (F, error) {
	r.mu.RLock()
	e, ok := r.entries[name]
	r.mu.RUnlock()
	if !ok {
		var zero F
		return zero, fmt.Errorf("unknown %s %q (registered: %s)",
			r.kind, name, strings.Join(r.Names(), ", "))
	}
	return e.factory, nil
}

// Names returns the registered names, sorted.
func (r *Registry[F]) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.entries))
	for n := range r.entries {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Infos returns the registered implementations' descriptions, sorted by
// name.
func (r *Registry[F]) Infos() []Info {
	r.mu.RLock()
	defer r.mu.RUnlock()
	infos := make([]Info, 0, len(r.entries))
	for _, e := range r.entries {
		infos = append(infos, e.info)
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

package mitigation

import (
	"fmt"

	"autorfm/internal/plugin"
	"autorfm/internal/rng"
)

// Factory builds one policy instance from a parsed parameter spec and the
// bank's device-side PRNG. It runs once per bank at every device build or
// Reset.
type Factory func(spec *plugin.Spec, r *rng.Source) (Policy, error)

// Env is what a built-in policy factory consults: the bank's device-side
// PRNG, and the policy the bank ran before the device Reset that is
// rebuilding it.
type Env struct {
	// R is the bank's device-side PRNG.
	R *rng.Source
	// Prev, when non-nil, is the bank's previous policy; nothing else
	// references it any more. The built-in factories reinitialise it in
	// place when it is of their own type, with exactly the state of a
	// fresh build, so a warm sim.Machine rebuilds its registry-built
	// pipelines without allocating. Registered Factories never see it and
	// allocate as before.
	Prev Policy
}

// envFactory is a Factory that is also handed the bank's previous policy.
type envFactory func(spec *plugin.Spec, env Env) (Policy, error)

var registry = plugin.NewRegistry[envFactory]("policy")

// Register adds a victim-refresh policy to the registry under info.Name.
// Call it from an init function; after that, sim.Config.Policy selects the
// implementation by name.
func Register(info plugin.Info, f Factory) {
	registry.Register(info, func(s *plugin.Spec, env Env) (Policy, error) { return f(s, env.R) })
}

// Names returns the registered policy names, sorted.
func Names() []string { return registry.Names() }

// Catalog returns the registered policies as a -list-plugins section.
func Catalog() plugin.Section {
	return plugin.Section{Title: "mitigation policies", Infos: registry.Infos()}
}

// FromSpec resolves a selector — "name" or "name(key=value, ...)" — into a
// bound constructor. Parse and lookup errors surface here (config time);
// parameter errors surface on the returned constructor's first call.
func FromSpec(selector string) (func(r *rng.Source) (Policy, error), error) {
	build, err := FromSpecEnv(selector)
	if err != nil {
		return nil, err
	}
	return func(r *rng.Source) (Policy, error) { return build(Env{R: r}) }, nil
}

// FromSpecEnv is FromSpec with a constructor that takes the whole Env, so a
// device Reset can hand each bank's previous policy to a built-in factory.
// Every call rebuilds from the one parsed spec after a Reset, so each runs
// the full Finish check. Not safe for concurrent use: every caller resolves
// its own.
func FromSpecEnv(selector string) (func(env Env) (Policy, error), error) {
	spec, err := plugin.ParseSpec(selector)
	if err != nil {
		return nil, fmt.Errorf("mitigation: %w", err)
	}
	f, err := registry.Lookup(spec.Name)
	if err != nil {
		return nil, fmt.Errorf("mitigation: %w", err)
	}
	return func(env Env) (Policy, error) {
		spec.Reset()
		p, err := f(&spec, env)
		if err != nil {
			return nil, fmt.Errorf("mitigation policy %q: %w", spec.Name, err)
		}
		return p, nil
	}, nil
}

// ByName constructs a policy from its bare report name (the pre-registry
// entry point, kept for programmatic callers; parameterized selectors go
// through FromSpec).
func ByName(name string, r *rng.Source) (Policy, error) {
	build, err := FromSpecEnv(name)
	if err != nil {
		return nil, err
	}
	return build(Env{R: r})
}

// The built-in policies register themselves here. Baseline and Recursive
// are empty structs, which an interface holds without allocating; Fractal
// rebuilds env.Prev in place.
func init() {
	registry.Register(plugin.Info{
		Name: "baseline",
		Doc:  "always refresh the blast-radius-2 victims (±1, ±2)",
	}, func(s *plugin.Spec, _ Env) (Policy, error) {
		if err := s.Finish(); err != nil {
			return nil, err
		}
		return NewBaseline(), nil
	})

	registry.Register(plugin.Info{
		Name: "recursive",
		Doc:  "level-L mitigations refresh ±(2L-1), ±2L; defends transitive attacks by chaining",
	}, func(s *plugin.Spec, _ Env) (Policy, error) {
		if err := s.Finish(); err != nil {
			return nil, err
		}
		return NewRecursive(), nil
	})

	registry.Register(plugin.Info{
		Name: "fractal",
		Doc:  "±1 plus one pair at distance d with probability 2^(1-d) (the paper's Fractal Mitigation)",
	}, func(s *plugin.Spec, env Env) (Policy, error) {
		if err := s.Finish(); err != nil {
			return nil, err
		}
		f, ok := env.Prev.(*Fractal)
		if !ok {
			return NewFractal(env.R), nil
		}
		*f = Fractal{r: env.R}
		return f, nil
	})
}

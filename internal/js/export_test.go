package js

import "sync"

// Lookup finds the binding of name from e by walking the scope chain by
// name, the way every lookup worked before scopes were laid out in slots:
// the test oracle for the resolver's Addrs. It returns nil for an
// undefined global.
func (e *Env) Lookup(name string) (*Binding, *Env) {
	for env := e; env != nil; env = env.parent {
		if env.scope == nil {
			if b, ok := env.vars[name]; ok {
				return b, env
			}
			continue
		}
		for i, n := range env.scope.Names {
			if n == name {
				return &env.slots[i], env
			}
		}
	}
	return nil, nil
}

// LookupCheck counts the variable lookups made while it is installed
// and records every name whose slot path found another binding than
// Env.Lookup.
type LookupCheck struct {
	mu         sync.Mutex
	Lookups    int
	Mismatches []string
}

// CheckLookups installs a LookupCheck on every variable lookup until the
// returned restore function runs. Tests that use it must not run in
// parallel with other interpreter tests.
func CheckLookups() (*LookupCheck, func()) {
	c := &LookupCheck{}
	lookupHook = func(env *Env, name string, b *Binding) {
		want, _ := env.Lookup(name)
		c.mu.Lock()
		defer c.mu.Unlock()
		c.Lookups++
		if b != want {
			c.Mismatches = append(c.Mismatches, name)
		}
	}
	return c, func() { lookupHook = nil }
}

package analysis

// Suite returns the full phantom-vet analyzer suite in reporting
// order. Each analyzer carries its own Applies scope; Run consults
// them, so callers can hand the whole module to the suite and let the
// scopes sort out which invariant covers which package.
func Suite() []*Analyzer {
	return []*Analyzer{
		Determinism,
		MapOrder,
		NoPerturb,
		CtxFlow,
		LockCheck,
		ErrFlow,
		GoLeak,
		HotAlloc,
		UnusedIgnore,
	}
}

// ByName returns the named analyzer from the suite, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Suite() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

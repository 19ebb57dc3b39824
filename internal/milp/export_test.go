package milp

// WithoutCuts returns o with root cut separation turned off: the
// reference search that external equivalence tests compare the default
// against.
func WithoutCuts(o Options) Options {
	o.disableCuts = true
	return o
}

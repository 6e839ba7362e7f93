package checkers

import (
	"testing"

	"repro/internal/dex"
)

// OracleOptions returns o switched to the whole-program test oracle: the
// scan demands every bodied class and makes every app method a summary
// root, the eager traversal the demand closure must be observationally
// identical to. The differential suites scan with it and require the
// engine's reports and Stats to match byte for byte. It panics outside a
// test binary, so no production path can select the oracle.
func OracleOptions(o Options) Options {
	if !testing.Testing() {
		panic("checkers: OracleOptions is test-only")
	}
	o.oracle = true
	return o
}

// wholeProgramClosure is the oracle's closure: every record a root,
// every bodied class demanded.
func wholeProgramClosure(x *dex.Index) targetedClosure {
	rm := make([]int32, len(x.Records()))
	for i := range rm {
		rm[i] = int32(i)
	}
	demanded := make([]bool, x.NumClasses())
	for i := range demanded {
		demanded[i] = true
	}
	return newClosure(x, rm, demanded, TargetedStats{SeedMethods: len(rm)})
}

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
// every record's class demanded. records are sorted by method key, so
// the roots come out sorted.
func wholeProgramClosure(records []dex.MethodRef) targetedClosure {
	roots := make([]string, len(records))
	demanded := make(map[string]bool)
	for i := range records {
		roots[i] = records[i].Key
		demanded[records[i].Sig.Class] = true
	}
	return targetedClosure{
		roots:    roots,
		demanded: demanded,
		stats: TargetedStats{
			SeedMethods:    len(records),
			ClosureMethods: len(records),
			ClosureClasses: len(demanded),
			ClassesDecoded: len(demanded),
		},
	}
}

package dex_test

import (
	"strings"
	"testing"

	"repro/internal/dex"
	"repro/internal/jimple"
)

// structureSrc is the base of the structural-rejection cases: two
// interfaces, a small class chain and a method with a branch and a trap.
const structureSrc = `class s.I extends java.lang.Object {
  method abstract f()void
}
class s.J extends java.lang.Object {
  method abstract g()void
}
class s.A extends java.lang.Object implements s.I {
  method f()void {
    local x int
    x = 0
    L0:
    if x > 3 goto L1
    x = x + 1
    goto L0
    L1:
    return
  }
}
class s.B extends s.A {
  method g()void {
    return
  }
}
class s.C extends s.B implements s.J {
}`

// structureCase edits the parsed base program into one case.
type structureCase struct {
	name string
	edit func(p *jimple.Program)
	// want is a fragment of the error both decoders must give; "" for a
	// program both must accept.
	want string
}

// branchOf returns the goto (goTo) or the if statement of s.A.f.
func branchOf(p *jimple.Program, goTo bool) jimple.Stmt {
	for _, s := range p.Class("s.A").MethodNamed("f").Body {
		switch s.(type) {
		case *jimple.GotoStmt:
			if goTo {
				return s
			}
		case *jimple.IfStmt:
			if !goTo {
				return s
			}
		}
	}
	panic("no branch")
}

// withTrap gives s.A.f one trap.
func withTrap(p *jimple.Program, begin, end, handler int) {
	m := p.Class("s.A").MethodNamed("f")
	m.Traps = []jimple.Trap{{Begin: begin, End: end, Handler: handler, Exception: "java.lang.Exception"}}
}

var structureCases = []structureCase{
	{"well-formed", func(*jimple.Program) {}, ""},
	{"own superclass", func(p *jimple.Program) { p.Class("s.A").Super = "s.A" }, "dex: class s.A: inheritance cycle"},
	{"superclass chain", func(p *jimple.Program) { p.Class("s.A").Super = "s.C" }, "dex: class s.A: inheritance cycle"},
	{"through an interface", func(p *jimple.Program) { p.Class("s.J").Super = "s.C" }, "dex: class s.C: inheritance cycle"},
	{"interfaces only", func(p *jimple.Program) {
		p.Class("s.I").Interfaces = []string{"s.J"}
		p.Class("s.J").Interfaces = []string{"s.I"}
	}, "dex: class s.I: inheritance cycle"},
	{"if target", func(p *jimple.Program) { branchOf(p, false).(*jimple.IfStmt).Target = 5 }, "statement 1 branches out of range (5 of 5)"},
	{"goto target", func(p *jimple.Program) { branchOf(p, true).(*jimple.GotoStmt).Target = 1 << 30 }, "statement 3 branches out of range (1073741824 of 5)"},
	{"good trap", func(p *jimple.Program) { withTrap(p, 0, 5, 4) }, ""},
	{"trap past the end", func(p *jimple.Program) { withTrap(p, 1, 6, 4) }, "trap 0 has bad range [1,6) of 5"},
	{"empty trap", func(p *jimple.Program) { withTrap(p, 2, 2, 4) }, "trap 0 has bad range [2,2) of 5"},
	{"trap handler", func(p *jimple.Program) { withTrap(p, 0, 2, 5) }, "trap 0 has bad handler 5"},
}

// TestStructuralRejections: both decoders reject a class that is its own
// supertype, a branch outside its body and a trap outside its body, with
// the same error; the cycle check follows only live classes, so a cycle
// through a class a later one of its name replaced is no cycle.
func TestStructuralRejections(t *testing.T) {
	for _, tc := range structureCases {
		t.Run(tc.name, func(t *testing.T) {
			p := jimple.MustParse(structureSrc)
			tc.edit(p)
			checkStructure(t, dex.Encode(p), tc.want)
		})
	}
	t.Run("replaced class", func(t *testing.T) {
		// s.Z sorts last and is renamed to s.A in the pool, so it replaces
		// the s.A whose superclass closes the cycle.
		p := jimple.MustParse(structureSrc + "\nclass s.Z extends java.lang.Object {\n}")
		p.Class("s.A").Super = "s.C"
		data := dex.Encode(p)
		checkStructure(t, data, "dex: class s.A: inheritance cycle")
		checkStructure(t, []byte(strings.Replace(string(data), "s.Z", "s.A", 1)), "")
	})
}

func checkStructure(t *testing.T, data []byte, want string) {
	t.Helper()
	_, eagerErr := dex.Decode(data)
	_, lazyErr := dex.DecodeLazy(data)
	if (eagerErr == nil) != (lazyErr == nil) || eagerErr != nil && eagerErr.Error() != lazyErr.Error() {
		t.Fatalf("errors disagree: eager=%v lazy=%v", eagerErr, lazyErr)
	}
	switch {
	case want == "" && eagerErr != nil:
		t.Fatalf("rejected: %v", eagerErr)
	case want != "" && (eagerErr == nil || !strings.Contains(eagerErr.Error(), want)):
		t.Fatalf("error %v, want one containing %q", eagerErr, want)
	}
}

package dataflow

import (
	"repro/internal/jimple"
)

// ConstProp evaluates integer constants of locals at statements using
// reaching definitions, following copy chains. NChecker uses it to recover
// the arguments of configuration APIs such as setMaxRetries (paper §4.4.2:
// "NChecker infers the value of config APIs through constant
// propagation").
type ConstProp struct {
	rd *ReachDefs
}

// NewConstProp wraps a reaching-definitions result. The engine is part
// of rd, so every call returns the same one and none allocates.
func NewConstProp(rd *ReachDefs) *ConstProp { return &rd.cp }

// maxConstDepth bounds copy-chain recursion; chains longer than this are
// treated as non-constant.
const maxConstDepth = 32

// IntAt evaluates local to an integer constant at stmt. ok is false when
// the local may hold more than one value, a non-constant value, or when
// evaluation exceeds the recursion bound.
func (c *ConstProp) IntAt(stmt int, local string) (int64, bool) {
	return c.intAt(stmt, local, 0)
}

func (c *ConstProp) intAt(stmt int, local string, depth int) (int64, bool) {
	if depth > maxConstDepth {
		return 0, false
	}
	var buf [8]int
	defs := c.rd.appendDefsReaching(buf[:0], stmt, local)
	if len(defs) == 0 {
		return 0, false
	}
	var val int64
	have := false
	for _, d := range defs {
		v, ok := c.evalDef(d, depth)
		if !ok {
			return 0, false
		}
		if have && v != val {
			return 0, false // conflicting constants on different paths
		}
		val, have = v, true
	}
	return val, have
}

func (c *ConstProp) evalDef(def int, depth int) (int64, bool) {
	a, ok := c.rd.g.Method.Body[def].(*jimple.AssignStmt)
	if !ok {
		return 0, false
	}
	return c.evalValue(def, a.RHS, depth+1)
}

func (c *ConstProp) evalValue(at int, v jimple.Value, depth int) (int64, bool) {
	switch v := v.(type) {
	case jimple.IntConst:
		return v.V, true
	case jimple.Local:
		return c.intAt(at, v.Name, depth)
	case jimple.CastExpr:
		return c.evalValue(at, v.V, depth)
	case jimple.BinExpr:
		l, okL := c.evalValue(at, v.L, depth)
		r, okR := c.evalValue(at, v.R, depth)
		if !okL || !okR {
			return 0, false
		}
		return foldBin(v.Op, l, r)
	case jimple.NegExpr:
		b, ok := c.evalValue(at, v.V, depth)
		if !ok {
			return 0, false
		}
		if b == 0 {
			return 1, true
		}
		return 0, true
	default:
		return 0, false
	}
}

func foldBin(op jimple.BinOp, l, r int64) (int64, bool) {
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	switch op {
	case jimple.OpAdd:
		return l + r, true
	case jimple.OpSub:
		return l - r, true
	case jimple.OpMul:
		return l * r, true
	case jimple.OpDiv:
		if r == 0 {
			return 0, false
		}
		return l / r, true
	case jimple.OpRem:
		if r == 0 {
			return 0, false
		}
		return l % r, true
	case jimple.OpAnd:
		return l & r, true
	case jimple.OpOr:
		return l | r, true
	case jimple.OpXor:
		return l ^ r, true
	case jimple.OpEQ:
		return b2i(l == r), true
	case jimple.OpNE:
		return b2i(l != r), true
	case jimple.OpLT:
		return b2i(l < r), true
	case jimple.OpLE:
		return b2i(l <= r), true
	case jimple.OpGT:
		return b2i(l > r), true
	case jimple.OpGE:
		return b2i(l >= r), true
	}
	return 0, false
}

// ValueAt evaluates an arbitrary expression as if it appeared at stmt,
// folding constants through copy chains, casts, binary comparisons and
// arithmetic, and logical negation. ok is false when any operand may hold
// more than one value or is not statically constant.
func (c *ConstProp) ValueAt(stmt int, v jimple.Value) (int64, bool) {
	return c.evalValue(stmt, v, 0)
}

// BranchTaken evaluates the condition of the if statement at stmt. known
// is false when stmt is not an if statement or its condition does not fold
// to a constant; otherwise taken reports whether the branch is always
// taken (condition non-zero) or never taken. Feasibility pruning uses this
// to find statically-dead CFG edges.
func (c *ConstProp) BranchTaken(stmt int) (taken, known bool) {
	body := c.rd.g.Method.Body
	if stmt < 0 || stmt >= len(body) {
		return false, false
	}
	iff, ok := body[stmt].(*jimple.IfStmt)
	if !ok {
		return false, false
	}
	v, ok := c.evalValue(stmt, iff.Cond, 0)
	if !ok {
		return false, false
	}
	return v != 0, true
}

// ArgInt evaluates the i'th argument of the invocation at stmt as an
// integer constant.
func (c *ConstProp) ArgInt(stmt int, inv jimple.InvokeExpr, i int) (int64, bool) {
	if i < 0 || i >= len(inv.Args) {
		return 0, false
	}
	return c.evalValue(stmt, inv.Args[i], 0)
}

// StrAt evaluates local to a string constant at stmt, following copy
// chains and folding OpAdd concatenation (the `url = base + path` string
// building the endpoint-hygiene checker resolves). ok is false when the
// local may hold more than one value on different paths, a non-constant
// value, or when evaluation exceeds the recursion bound — mirroring
// IntAt's conflicting-definitions and depth rules.
func (c *ConstProp) StrAt(stmt int, local string) (string, bool) {
	return c.strAt(stmt, local, 0)
}

func (c *ConstProp) strAt(stmt int, local string, depth int) (string, bool) {
	if depth > maxConstDepth {
		return "", false
	}
	var buf [8]int
	defs := c.rd.appendDefsReaching(buf[:0], stmt, local)
	if len(defs) == 0 {
		return "", false
	}
	var val string
	have := false
	for _, d := range defs {
		v, ok := c.evalStrDef(d, depth)
		if !ok {
			return "", false
		}
		if have && v != val {
			return "", false // conflicting constants on different paths
		}
		val, have = v, true
	}
	return val, have
}

func (c *ConstProp) evalStrDef(def int, depth int) (string, bool) {
	a, ok := c.rd.g.Method.Body[def].(*jimple.AssignStmt)
	if !ok {
		return "", false
	}
	return c.evalStrValue(def, a.RHS, depth+1)
}

func (c *ConstProp) evalStrValue(at int, v jimple.Value, depth int) (string, bool) {
	switch v := v.(type) {
	case jimple.StrConst:
		return v.V, true
	case jimple.Local:
		return c.strAt(at, v.Name, depth)
	case jimple.CastExpr:
		return c.evalStrValue(at, v.V, depth)
	case jimple.BinExpr:
		// Only + concatenates strings; every other operator on strings is
		// not a constant expression.
		if v.Op != jimple.OpAdd {
			return "", false
		}
		l, okL := c.evalStrValue(at, v.L, depth)
		r, okR := c.evalStrValue(at, v.R, depth)
		if !okL || !okR {
			return "", false
		}
		return l + r, true
	default:
		return "", false
	}
}

// ArgStr evaluates the i'th argument of the invocation at stmt as a
// string constant, the string mirror of ArgInt.
func (c *ConstProp) ArgStr(stmt int, inv jimple.InvokeExpr, i int) (string, bool) {
	if i < 0 || i >= len(inv.Args) {
		return "", false
	}
	return c.evalStrValue(stmt, inv.Args[i], 0)
}

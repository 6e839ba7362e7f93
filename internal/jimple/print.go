package jimple

import (
	"sort"
	"strconv"
	"strings"
)

// Fprint renders the program in the textual assembly form accepted by
// Parse. The rendering is deterministic: classes sorted by name, members
// in declaration order.
func Fprint(b *strings.Builder, p *Program) {
	for i, c := range p.Classes() {
		if i > 0 {
			b.WriteByte('\n')
		}
		printClass(b, c)
	}
}

// Print renders the program as a string.
func Print(p *Program) string {
	var b strings.Builder
	Fprint(&b, p)
	return b.String()
}

// PrintClass renders a single class.
func PrintClass(c *Class) string {
	var b strings.Builder
	printClass(&b, c)
	return b.String()
}

func printClass(b *strings.Builder, c *Class) {
	if c.IsIface {
		b.WriteString("interface ")
	} else {
		if c.Abstract {
			b.WriteString("abstract ")
		}
		b.WriteString("class ")
	}
	b.WriteString(c.Name)
	if c.Super != "" {
		b.WriteString(" extends ")
		b.WriteString(c.Super)
	}
	if len(c.Interfaces) > 0 {
		b.WriteString(" implements ")
		for i, ifc := range c.Interfaces {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(ifc)
		}
	}
	b.WriteString(" {\n")
	for _, f := range c.Fields {
		b.WriteString("  field ")
		if f.Static {
			b.WriteString("static ")
		}
		b.WriteString(f.Name)
		b.WriteByte(' ')
		b.WriteString(f.Type)
		b.WriteByte('\n')
	}
	for _, m := range c.Methods {
		printMethod(b, m)
	}
	b.WriteString("}\n")
}

func printMethod(b *strings.Builder, m *Method) {
	b.WriteString("  method ")
	if m.Static {
		b.WriteString("static ")
	}
	if m.Abstract {
		b.WriteString("abstract ")
	}
	b.WriteString(m.Sig.Name)
	b.WriteByte('(')
	for i, p := range m.Sig.Params {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p)
	}
	b.WriteByte(')')
	b.WriteString(m.Sig.Ret)
	if !m.HasBody() {
		b.WriteByte('\n')
		return
	}
	b.WriteString(" {\n")
	for _, l := range m.Locals {
		b.WriteString("    local ")
		b.WriteString(l.Name)
		b.WriteByte(' ')
		b.WriteString(l.Type)
		b.WriteByte('\n')
	}
	labels := collectLabels(m)
	writeLabel := func(lbl int) {
		b.WriteString("    L")
		writeInt(b, int64(lbl))
		b.WriteString(":\n")
	}
	for i, s := range m.Body {
		if lbl, ok := labels[i]; ok {
			writeLabel(lbl)
		}
		b.WriteString("    ")
		writeStmt(b, s, labels)
		b.WriteByte('\n')
	}
	// A label may anchor one past the last statement only via traps ends;
	// trap ends are exclusive and may equal len(Body).
	if lbl, ok := labels[len(m.Body)]; ok {
		writeLabel(lbl)
	}
	for _, t := range m.Traps {
		b.WriteString("    trap L")
		writeInt(b, int64(labels[t.Begin]))
		b.WriteString(" L")
		writeInt(b, int64(labels[t.End]))
		b.WriteString(" L")
		writeInt(b, int64(labels[t.Handler]))
		b.WriteByte(' ')
		b.WriteString(t.Exception)
		b.WriteByte('\n')
	}
	b.WriteString("  }\n")
}

// writeInt writes the decimal rendering of v without going through fmt.
func writeInt(b *strings.Builder, v int64) {
	var buf [20]byte
	b.Write(strconv.AppendInt(buf[:0], v, 10))
}

// collectLabels assigns a label number to every statement index that is a
// branch target or trap boundary, in increasing index order.
func collectLabels(m *Method) map[int]int {
	idxSet := make(map[int]bool)
	var scratch []int
	for _, s := range m.Body {
		for _, t := range BranchTargets(scratch[:0], s) {
			idxSet[t] = true
		}
	}
	for _, t := range m.Traps {
		idxSet[t.Begin] = true
		idxSet[t.End] = true
		idxSet[t.Handler] = true
	}
	idxs := make([]int, 0, len(idxSet))
	for i := range idxSet {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	labels := make(map[int]int, len(idxs))
	for n, i := range idxs {
		labels[i] = n
	}
	return labels
}

func writeStmt(b *strings.Builder, s Stmt, labels map[int]int) {
	switch s := s.(type) {
	case *AssignStmt:
		writeLValue(b, s.LHS)
		b.WriteString(" = ")
		writeValue(b, s.RHS)
	case *InvokeStmt:
		writeInvoke(b, s.Call)
	case *IfStmt:
		b.WriteString("if ")
		writeValue(b, s.Cond)
		b.WriteString(" goto L")
		writeInt(b, int64(labels[s.Target]))
	case *GotoStmt:
		b.WriteString("goto L")
		writeInt(b, int64(labels[s.Target]))
	case *ReturnStmt:
		if s.V == nil {
			b.WriteString("return")
			return
		}
		b.WriteString("return ")
		writeAtom(b, s.V)
	case *ThrowStmt:
		b.WriteString("throw ")
		writeAtom(b, s.V)
	case *NopStmt:
		b.WriteString("nop")
	default:
		b.WriteByte('?')
	}
}

func writeLValue(b *strings.Builder, v LValue) {
	switch v := v.(type) {
	case Local:
		b.WriteString(v.Name)
	case FieldRef:
		writeFieldRef(b, v)
	default:
		b.WriteByte('?')
	}
}

func writeFieldRef(b *strings.Builder, f FieldRef) {
	if f.Base == "" {
		b.WriteString("sfield(")
	} else {
		b.WriteString("field(")
		b.WriteString(f.Base)
		b.WriteByte(',')
	}
	b.WriteString(f.Class)
	b.WriteByte(',')
	b.WriteString(f.Field)
	b.WriteByte(')')
}

func writeAtom(b *strings.Builder, v Value) {
	switch v := v.(type) {
	case Local:
		b.WriteString(v.Name)
	case IntConst:
		writeInt(b, v.V)
	case StrConst:
		b.WriteString(strconv.Quote(v.V))
	case NullConst:
		b.WriteString("null")
	case ParamRef:
		b.WriteString("param ")
		writeInt(b, int64(v.Index))
		b.WriteByte(' ')
		b.WriteString(v.Type)
	case ThisRef:
		b.WriteString("this ")
		b.WriteString(v.Type)
	case CaughtExRef:
		b.WriteString("caught")
	case FieldRef:
		writeFieldRef(b, v)
	default:
		b.WriteByte('?')
		b.WriteString(v.String())
	}
}

func writeValue(b *strings.Builder, v Value) {
	switch v := v.(type) {
	case NewExpr:
		b.WriteString("new ")
		b.WriteString(v.Type)
	case InvokeExpr:
		writeInvoke(b, v)
	case BinExpr:
		writeAtom(b, v.L)
		b.WriteByte(' ')
		b.WriteString(v.Op.String())
		b.WriteByte(' ')
		writeAtom(b, v.R)
	case NegExpr:
		b.WriteByte('!')
		writeAtom(b, v.V)
	case CastExpr:
		b.WriteString("cast ")
		b.WriteString(v.Type)
		b.WriteByte(' ')
		writeAtom(b, v.V)
	case InstanceOfExpr:
		b.WriteString("instanceof ")
		b.WriteString(v.Type)
		b.WriteByte(' ')
		writeAtom(b, v.V)
	default:
		writeAtom(b, v)
	}
}

func writeInvoke(b *strings.Builder, e InvokeExpr) {
	b.WriteString(e.Kind.String())
	b.WriteByte(' ')
	if e.Kind != InvokeStatic {
		b.WriteString(e.Base)
		b.WriteByte(' ')
	}
	// Callee key, streamed piecewise — the rendering matches Sig.Key.
	b.WriteString(e.Callee.Class)
	b.WriteByte('.')
	b.WriteString(e.Callee.Name)
	b.WriteByte('(')
	for i, p := range e.Callee.Params {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p)
	}
	b.WriteByte(')')
	b.WriteString(e.Callee.Ret)
	for _, a := range e.Args {
		b.WriteByte(' ')
		writeAtom(b, a)
	}
}

// Package jimple defines a typed, three-address intermediate representation
// for Android-style application code, modeled after the Jimple IR produced
// by Soot/Dexpler. Apps under analysis are represented as jimple.Program
// values: a set of classes with fields and methods, where each method body
// is a flat list of statements with index-based branch targets and
// exception ranges (traps).
//
// The IR is the substrate every analysis in this repository consumes: the
// control-flow graph builder (internal/cfg), the class hierarchy and call
// graph (internal/hierarchy, internal/callgraph), the dataflow engines
// (internal/dataflow) and ultimately the NChecker checkers
// (internal/checkers). It is deliberately small — just the statement and
// expression inventory those analyses need — but faithful to Jimple's
// shape: explicit locals, explicit receivers, one side effect per
// statement.
package jimple

import (
	"fmt"
	"strings"
)

// Primitive and well-known type names. Types in this IR are plain strings:
// either a primitive name, a fully qualified class name
// ("java.lang.String"), or an array type ("byte[]").
const (
	TypeVoid    = "void"
	TypeBoolean = "boolean"
	TypeInt     = "int"
	TypeLong    = "long"
	TypeFloat   = "float"
	TypeDouble  = "double"
	TypeString  = "java.lang.String"
	TypeObject  = "java.lang.Object"
)

// IsPrimitive reports whether t names a primitive (non-reference) type.
func IsPrimitive(t string) bool {
	switch t {
	case TypeVoid, TypeBoolean, TypeInt, TypeLong, TypeFloat, TypeDouble, "byte", "char", "short":
		return true
	}
	return false
}

// IsRef reports whether t names a reference type (class or array).
func IsRef(t string) bool { return !IsPrimitive(t) }

// IsArray reports whether t names an array type.
func IsArray(t string) bool { return strings.HasSuffix(t, "[]") }

// ElemType returns the element type of an array type, or t itself if t is
// not an array type.
func ElemType(t string) string { return strings.TrimSuffix(t, "[]") }

// SimpleName returns the class name without its package qualifier.
// Inner-class separators ('$') are preserved.
func SimpleName(t string) string {
	if i := strings.LastIndexByte(t, '.'); i >= 0 {
		return t[i+1:]
	}
	return t
}

// OuterClass returns the outermost enclosing class name for an
// inner-class name such as "com.app.Main$Listener"; for a top-level class
// it returns the name unchanged.
func OuterClass(t string) string {
	if i := strings.IndexByte(SimpleName(t), '$'); i >= 0 {
		pkgEnd := strings.LastIndexByte(t, '.')
		return t[:pkgEnd+1+i]
	}
	return t
}

// Sig identifies a method: declaring class, name, parameter types, and
// return type. Sig values are comparable only via Key (slices are not
// comparable), and Key is the canonical form used in maps throughout the
// analyses.
type Sig struct {
	Class  string
	Name   string
	Params []string
	Ret    string
}

// MakeSig is shorthand for constructing a Sig.
func MakeSig(class, name string, params []string, ret string) Sig {
	return Sig{Class: class, Name: name, Params: params, Ret: ret}
}

// Key returns the canonical string form of the signature,
// e.g. "com.android.volley.RequestQueue.add(com.android.volley.Request)void".
func (s Sig) Key() string {
	var b strings.Builder
	b.WriteString(s.Class)
	b.WriteByte('.')
	b.WriteString(s.Name)
	b.WriteByte('(')
	for i, p := range s.Params {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p)
	}
	b.WriteByte(')')
	b.WriteString(s.Ret)
	return b.String()
}

// SubSigKey returns the signature key without the declaring class —
// the "subsignature" used for override matching during virtual dispatch.
func (s Sig) SubSigKey() string {
	var b strings.Builder
	b.WriteString(s.Name)
	b.WriteByte('(')
	for i, p := range s.Params {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p)
	}
	b.WriteByte(')')
	b.WriteString(s.Ret)
	return b.String()
}

// AppendKey appends the canonical Key form of s to dst and returns the
// extended slice. The bytes are identical to Key(); hot paths use it with
// a reused buffer to avoid the intermediate string allocation.
func (s Sig) AppendKey(dst []byte) []byte {
	dst = append(dst, s.Class...)
	dst = append(dst, '.')
	return s.appendSubSig(dst)
}

// AppendSubSigKey appends the canonical SubSigKey form of s to dst,
// byte-identical to SubSigKey().
func (s Sig) AppendSubSigKey(dst []byte) []byte {
	return s.appendSubSig(dst)
}

func (s Sig) appendSubSig(dst []byte) []byte {
	dst = append(dst, s.Name...)
	dst = append(dst, '(')
	for i, p := range s.Params {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, p...)
	}
	dst = append(dst, ')')
	return append(dst, s.Ret...)
}

func (s Sig) String() string { return s.Key() }

// HasSubSig reports whether s.SubSigKey() == sub, without rendering it.
func (s Sig) HasSubSig(sub string) bool {
	rest, ok := strings.CutPrefix(sub, s.Name)
	if !ok {
		return false
	}
	if rest, ok = strings.CutPrefix(rest, "("); !ok {
		return false
	}
	for i, p := range s.Params {
		if i > 0 {
			if rest, ok = strings.CutPrefix(rest, ","); !ok {
				return false
			}
		}
		if rest, ok = strings.CutPrefix(rest, p); !ok {
			return false
		}
	}
	if rest, ok = strings.CutPrefix(rest, ")"); !ok {
		return false
	}
	return rest == s.Ret
}

// WithClass returns a copy of s redeclared on class c. Used when resolving
// an inherited method to a concrete implementing class.
func (s Sig) WithClass(c string) Sig {
	return Sig{Class: c, Name: s.Name, Params: s.Params, Ret: s.Ret}
}

// ParseSigKey parses the canonical form produced by Sig.Key. It returns an
// error if the string is malformed.
func ParseSigKey(key string) (Sig, error) {
	open := strings.IndexByte(key, '(')
	closeIdx := strings.LastIndexByte(key, ')')
	if open < 0 || closeIdx < open {
		return Sig{}, fmt.Errorf("jimple: malformed signature key %q", key)
	}
	qual := key[:open]
	dot := strings.LastIndexByte(qual, '.')
	if dot < 0 {
		return Sig{}, fmt.Errorf("jimple: signature key %q lacks a declaring class", key)
	}
	var params []string
	if inner := key[open+1 : closeIdx]; inner != "" {
		params = strings.Split(inner, ",")
	}
	ret := key[closeIdx+1:]
	if ret == "" {
		return Sig{}, fmt.Errorf("jimple: signature key %q lacks a return type", key)
	}
	return Sig{Class: qual[:dot], Name: qual[dot+1:], Params: params, Ret: ret}, nil
}

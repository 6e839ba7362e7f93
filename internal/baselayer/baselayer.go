// Package baselayer holds the frozen framework layer every scan shares:
// the Android framework model and the library stubs merged into one
// program, that program's class hierarchy, and the part of call-graph
// construction that depends on it alone. The layer is built once per
// process and never mutated afterwards; each app is layered over it at a
// cost linear in the app's own classes instead of re-merging and
// re-indexing the framework per scan.
package baselayer

import (
	"sync"

	"repro/internal/android"
	"repro/internal/apimodel"
	"repro/internal/callgraph"
	"repro/internal/hierarchy"
	"repro/internal/jimple"
)

// Layer is the frozen framework + library-stub layer.
type Layer struct {
	prog *jimple.Program
	h    *hierarchy.Hierarchy
	cg   *callgraph.Base
}

var (
	once  sync.Once
	layer *Layer
)

// Get returns the process-wide layer, building it on first use.
func Get() *Layer {
	once.Do(func() {
		// Framework first: where a framework class and a library stub
		// share a name, the framework's definition wins, as in the flat
		// merge app ← framework ← stubs.
		prog := jimple.NewProgram()
		prog.Merge(android.Framework())
		prog.Merge(apimodel.Stubs())
		prog.Freeze()
		h := hierarchy.New(prog)
		layer = &Layer{prog: prog, h: h, cg: callgraph.NewBase(h)}
	})
	return layer
}

// Program returns the frozen merged framework + stubs program.
func (l *Layer) Program() *jimple.Program { return l.prog }

// Hierarchy returns the flat hierarchy of the frozen program.
func (l *Layer) Hierarchy() *hierarchy.Hierarchy { return l.h }

// Graph returns the call-graph part precomputed from the frozen program.
func (l *Layer) Graph() *callgraph.Base { return l.cg }

// Overlay layers app's classes over the frozen program (app classes win
// over framework classes of the same name) and indexes the overlay's
// hierarchy; its Program() is the layered program.
func (l *Layer) Overlay(app *jimple.Program) *hierarchy.Hierarchy {
	return hierarchy.NewOverlay(l.h, jimple.NewOverlay(app, l.prog))
}

// CallGraph builds the call graph of an overlay hierarchy from Overlay.
func (l *Layer) CallGraph(h *hierarchy.Hierarchy, manifest *android.Manifest, opts callgraph.Options) *callgraph.Graph {
	return l.cg.Build(h, manifest, opts)
}

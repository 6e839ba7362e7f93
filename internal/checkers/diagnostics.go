package checkers

import (
	"fmt"
	"reflect"
	"strings"
	"time"

	"repro/internal/report"
)

// StageTiming records one pipeline stage's wall time and work volume.
// Stages overlap when Options.Workers > 1, so durations do not sum to
// Diagnostics.Total.
type StageTiming struct {
	Name     string
	Duration time.Duration
	Items    int // work units examined: request sites, or methods
	Reports  int // warnings the stage emitted
}

// Counter catalog. Every int field of CacheStats, TargetedStats and
// ValidateStats is a counter whose `metric` tag is its export name; the
// `counters` tag on the Diagnostics field that holds the struct is its
// family. counterIndex, built from those tags once at init, is the single
// list Diagnostics.Merge and Diagnostics.EachCounter (and through it
// nchecker serve's nchecker_<family>_<name>_total series) walk, so adding
// a tagged field is all it takes to merge and export a new counter.

// CacheStats counts AnalysisContext artifact computations vs. requests.
// Hits are Requests − Computed; Computed never exceeds the number of
// distinct methods, proving each artifact is built at most once per
// method per scan.
type CacheStats struct {
	Methods int `metric:"methods"` // distinct methods with at least one cached artifact

	CFGComputed        int `metric:"cfg_computed"`
	CFGRequests        int `metric:"cfg_requests"`
	ReachDefsComputed  int `metric:"reachdefs_computed"`
	ReachDefsRequests  int `metric:"reachdefs_requests"`
	ConstPropComputed  int `metric:"constprop_computed"`
	ConstPropRequests  int `metric:"constprop_requests"`
	DominatorsComputed int `metric:"dominators_computed"`
	DominatorsRequests int `metric:"dominators_requests"`
	LoopsComputed      int `metric:"loops_computed"`
	LoopsRequests      int `metric:"loops_requests"`
	SlicersComputed    int `metric:"slicers_computed"`
	SlicerRequests     int `metric:"slicer_requests"`

	// Interprocedural summary engine: the summary set is built once per
	// scan (SummariesComputed = methods summarized, over SummarySCCs
	// condensation components, spending SummaryFixpointIters extra passes
	// on recursive cycles); every later consult is a cache hit
	// (SummaryRequests − SummariesComputed).
	SummariesComputed    int `metric:"summaries_computed"`
	SummaryRequests      int `metric:"summary_requests"`
	SummarySCCs          int `metric:"summary_sccs"`
	SummaryFixpointIters int `metric:"summary_fixpoint_iters"`
	// Path-feasibility pruning: pruned per-method CFGs built vs. requested,
	// and the total statically-dead edges removed.
	FeasibleCFGComputed int `metric:"feasible_cfg_computed"`
	FeasibleCFGRequests int `metric:"feasible_cfg_requests"`
	PrunedEdges         int `metric:"pruned_edges"`

	// Persistent store (Options.CacheDir) traffic: result-entry probes and
	// their outcomes, and the write side. StoreCorrupt counts
	// corrupt/truncated entries and in-cache panics, all of which degrade
	// to cold computation. All zero when the persistent cache is off.
	StoreProbes    int `metric:"store_probes"`
	StoreHits      int `metric:"store_hits"`
	StoreMisses    int `metric:"store_misses"`
	StoreCorrupt   int `metric:"store_corrupt"`
	StorePuts      int `metric:"store_puts"`
	StorePutErrors int `metric:"store_put_errors"`
	StoreEvicted   int `metric:"store_evicted"`
}

// CFGHits returns the number of CFG requests served from the cache.
func (c CacheStats) CFGHits() int { return c.CFGRequests - c.CFGComputed }

// ReachDefsHits returns the reaching-defs requests served from the cache.
func (c CacheStats) ReachDefsHits() int { return c.ReachDefsRequests - c.ReachDefsComputed }

// TargetedStats counts the work the demand closure kept vs. skipped. All
// zero on cache-hit scans, which do no closure work.
type TargetedStats struct {
	// SeedMethods counts the closure's roots: methods with a target-API
	// call plus registered callback implementations.
	SeedMethods int `metric:"seed_methods"`
	// ClosureMethods / ClosureClasses size the converged relevant-method
	// and demanded-class sets.
	ClosureMethods int `metric:"closure_methods"`
	ClosureClasses int `metric:"closure_classes"`
	// ClassesDecoded / ClassesSkipped split the app's body-bearing classes
	// into materialized and never-decoded.
	ClassesDecoded int `metric:"classes_decoded"`
	ClassesSkipped int `metric:"classes_skipped"`
}

// ValidateStats counts the dynamic-validation stage's work and verdicts.
// All zero when Options.Validate is off (and on cache-hit scans, which
// restore verdicts without replaying).
type ValidateStats struct {
	// Confirmed / Unconfirmed / NotValidated partition the scan's warnings
	// by verdict; their sum is the number of warnings examined.
	Confirmed    int `metric:"confirmed"`
	Unconfirmed  int `metric:"unconfirmed"`
	NotValidated int `metric:"not_validated"`
	// Replays counts entry × scenario machine executions (shared across
	// warnings with the same witness entry).
	Replays int `metric:"replays"`
	// BudgetHits counts replays truncated by the interpreter step budget.
	BudgetHits int `metric:"budget_hits"`
}

// count tallies one warning's verdict (a report.Validation* value).
func (v *ValidateStats) count(verdict string) {
	switch verdict {
	case report.ValidationConfirmed:
		v.Confirmed++
	case report.ValidationUnconfirmed:
		v.Unconfirmed++
	default:
		v.NotValidated++
	}
}

// Diagnostics is the per-scan observability record: where the time went,
// how much was analyzed, and how well the shared analysis cache worked.
// It is populated by every Analyze call and threaded through core.Result
// to cmd/nchecker (-timings) and the experiment harness.
type Diagnostics struct {
	Total      time.Duration
	Workers    int // resolved worker count the scan ran with
	AppMethods int // body-bearing app methods scanned
	Sites      int // request sites discovered

	// The `counters` tags name the catalog's counter families.
	Targeted TargetedStats `counters:"targeted"`
	Validate ValidateStats `counters:"validate"`
	Stages   []StageTiming
	Cache    CacheStats `counters:"cache"`

	// Errors lists the scan's survivable failures (stage panics, expired
	// deadlines, cancellations), sorted by stage order then unit index.
	// Non-empty exactly when the Result is Incomplete.
	Errors []ScanError
}

// counterField locates one catalog counter: field inner of the stats
// struct held in Diagnostics field outer.
type counterField struct {
	family, name string
	outer, inner int
}

// counterIndex is the counter catalog in declaration order.
var counterIndex = buildCounterIndex()

// buildCounterIndex reads the catalog off the struct tags. An untagged
// counter field, a non-int field in a stats struct, or a duplicate
// family/name pair is a programming error and panics at init.
func buildCounterIndex() []counterField {
	var out []counterField
	seen := make(map[[2]string]bool)
	dt := reflect.TypeOf(Diagnostics{})
	for i := 0; i < dt.NumField(); i++ {
		family := dt.Field(i).Tag.Get("counters")
		if family == "" {
			continue
		}
		st := dt.Field(i).Type
		for j := 0; j < st.NumField(); j++ {
			f := st.Field(j)
			name := f.Tag.Get("metric")
			if f.Type.Kind() != reflect.Int || name == "" {
				panic(fmt.Sprintf("checkers: %s.%s is not a tagged int counter", st.Name(), f.Name))
			}
			if seen[[2]string{family, name}] {
				panic(fmt.Sprintf("checkers: duplicate counter %s/%s", family, name))
			}
			seen[[2]string{family, name}] = true
			out = append(out, counterField{family: family, name: name, outer: i, inner: j})
		}
	}
	return out
}

// Stage returns the timing record of the named stage, or nil.
func (d *Diagnostics) Stage(name string) *StageTiming {
	for i := range d.Stages {
		if d.Stages[i].Name == name {
			return &d.Stages[i]
		}
	}
	return nil
}

// add appends a stage record.
func (d *Diagnostics) add(name string, dur time.Duration, items, reports int) {
	d.Stages = append(d.Stages, StageTiming{Name: name, Duration: dur, Items: items, Reports: reports})
}

// Merge accumulates another scan's diagnostics into d (stage-wise and
// counter-wise), for corpus-level aggregation. Workers is kept from d.
func (d *Diagnostics) Merge(o Diagnostics) {
	d.Total += o.Total
	d.AppMethods += o.AppMethods
	d.Sites += o.Sites
	for _, s := range o.Stages {
		if have := d.Stage(s.Name); have != nil {
			have.Duration += s.Duration
			have.Items += s.Items
			have.Reports += s.Reports
		} else {
			d.Stages = append(d.Stages, s)
		}
	}
	dv, ov := reflect.ValueOf(d).Elem(), reflect.ValueOf(&o).Elem()
	for _, c := range counterIndex {
		f := dv.Field(c.outer).Field(c.inner)
		f.SetInt(f.Int() + ov.Field(c.outer).Field(c.inner).Int())
	}
	d.Errors = append(d.Errors, o.Errors...)
}

// EachCounter calls fn for every catalog counter, in declaration order,
// with its family (cache, targeted, validate), export name and value.
func (d *Diagnostics) EachCounter(fn func(family, name string, v int)) {
	dv := reflect.ValueOf(d).Elem()
	for _, c := range counterIndex {
		fn(c.family, c.name, int(dv.Field(c.outer).Field(c.inner).Int()))
	}
}

// Render formats the diagnostics for the -timings flag.
func (d Diagnostics) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pipeline: %v total, %d workers, %d app methods, %d request sites\n",
		d.Total.Round(time.Microsecond), d.Workers, d.AppMethods, d.Sites)
	if t := d.Targeted; t != (TargetedStats{}) {
		fmt.Fprintf(&b, "  targeted: %d seeds -> %d methods over %d classes; classes decoded %d, skipped %d\n",
			t.SeedMethods, t.ClosureMethods, t.ClosureClasses, t.ClassesDecoded, t.ClassesSkipped)
	}
	if v := d.Validate; v != (ValidateStats{}) {
		fmt.Fprintf(&b, "  validate: %d confirmed, %d unconfirmed, %d not-validated; %d replays (%d budget-truncated)\n",
			v.Confirmed, v.Unconfirmed, v.NotValidated, v.Replays, v.BudgetHits)
	}
	for _, s := range d.Stages {
		fmt.Fprintf(&b, "  stage %-14s %12v  items=%-5d reports=%d\n",
			s.Name, s.Duration.Round(time.Microsecond), s.Items, s.Reports)
	}
	// Per-family warning counters (families whose stage ran; an ablated
	// family is simply absent).
	famLine := ""
	for f := 1; f <= NumCheckerFamilies; f++ {
		name := StageOfFamily(f)
		total, present := 0, false
		for _, s := range d.Stages {
			if s.Name == name {
				present = true
				total += s.Reports
			}
		}
		if present {
			famLine += fmt.Sprintf(" %d:%s=%d", f, name, total)
		}
	}
	if famLine != "" {
		fmt.Fprintf(&b, "  checker families:%s\n", famLine)
	}
	c := d.Cache
	fmt.Fprintf(&b, "  cache (computed/requests over %d methods): cfg %d/%d  reachdefs %d/%d  constprop %d/%d  dominators %d/%d  loops %d/%d  slicer %d/%d\n",
		c.Methods, c.CFGComputed, c.CFGRequests, c.ReachDefsComputed, c.ReachDefsRequests,
		c.ConstPropComputed, c.ConstPropRequests, c.DominatorsComputed, c.DominatorsRequests,
		c.LoopsComputed, c.LoopsRequests, c.SlicersComputed, c.SlicerRequests)
	fmt.Fprintf(&b, "  summaries: %d methods over %d SCCs (%d fixpoint iters), %d consults; feasibility: %d/%d pruned CFGs, %d dead edges\n",
		c.SummariesComputed, c.SummarySCCs, c.SummaryFixpointIters, c.SummaryRequests,
		c.FeasibleCFGComputed, c.FeasibleCFGRequests, c.PrunedEdges)
	if c.StoreProbes > 0 || c.StorePuts > 0 || c.StorePutErrors > 0 {
		fmt.Fprintf(&b, "  store: %d probes (%d hits, %d misses, %d corrupt); %d puts (%d errors), %d evicted\n",
			c.StoreProbes, c.StoreHits, c.StoreMisses, c.StoreCorrupt,
			c.StorePuts, c.StorePutErrors, c.StoreEvicted)
	}
	for i := range d.Errors {
		fmt.Fprintf(&b, "  error: %v\n", &d.Errors[i])
	}
	return b.String()
}

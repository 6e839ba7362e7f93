package report

import (
	"strings"
	"testing"

	"repro/internal/testutil"
)

// renderVariants covers every branch of the layout: each cause, both
// request contexts, with and without a call stack, and every validation
// shape. (The rendered bytes themselves are pinned by the golden
// snapshots in internal/experiments.)
func renderVariants() []Report {
	var out []Report
	for i, c := range AllCauses() {
		r := sampleReport()
		r.Cause, r.Impacts = c, Impacts(c)
		r.Context.UserInitiated = i%2 == 0
		r.Location.Stmt = i * 37
		switch i % 4 {
		case 1:
			r.CallStack = nil
		case 2:
			r.Validation, r.ValidationNote = ValidationConfirmed, "crash under loss"
		case 3:
			r.Validation = ValidationNotValidated
		}
		out = append(out, r)
	}
	return out
}

// TestRenderAllAllocs: RenderAll writes every report into one builder,
// so rendering a scan's reports costs one allocation however many there
// are, and its text is each report's Render plus a blank line.
func TestRenderAllAllocs(t *testing.T) {
	reports := renderVariants()
	var want strings.Builder
	for i := range reports {
		want.WriteString(reports[i].Render() + "\n")
	}
	if RenderAll(reports) != want.String() {
		t.Fatal("RenderAll differs from the concatenated Render output")
	}
	if testutil.RaceEnabled {
		t.Skip("the race runtime allocates on its own account")
	}
	if avg := testing.AllocsPerRun(20, func() { RenderAll(reports) }); avg > 1 {
		t.Errorf("RenderAll of %d reports allocates %.1f times, want 1", len(reports), avg)
	}
}

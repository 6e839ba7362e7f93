package corpus

import (
	"fmt"
	"strings"

	"repro/internal/apk"
	"repro/internal/jimple"
)

// AddPadding appends n inert padding classes to the app's program, for
// class-count-scaling experiments (BenchmarkScanPadded*, the large-apps
// benchmark workload): padding inflates the app without changing any
// report.
//
// Each padding class is provably outside the engine's demand-driven
// closure (DESIGN.md §9): it extends java.lang.Object,
// implements nothing, is registered in no manifest component, contains no
// target-API or config-API call, overrides no lifecycle or dispatch
// callback, and its uniquely-named methods call only each other — so no
// closure rule (seeding, backward caller walk, async dispatch, ICC,
// forward callee walk) can ever reach one. The whole-program test oracle
// still decodes and scans every padding body; the engine skips them all.
func AddPadding(app *apk.App, n int) {
	if n <= 0 {
		return
	}
	var b strings.Builder
	for i := 0; i < n; i++ {
		cls := padClassName(app.Manifest.Package, i)
		// Each class also calls into its predecessor, so the padding forms
		// one connected call web: if any padding class were ever demanded
		// by mistake, the whole web would follow and the differential
		// tests would see the decode counters explode.
		prev := cls
		if i > 0 {
			prev = padClassName(app.Manifest.Package, i-1)
		}
		fmt.Fprintf(&b, "class %s extends java.lang.Object {\n", cls)
		fmt.Fprintf(&b, `  method static churnA(int)int {
    local x int
    local y int
    x = param 0 int
    y = x * 31
    y = y + 7
    x = staticinvoke %s.churnB(int)int y
    return x
  }
`, cls)
		fmt.Fprintf(&b, `  method static churnB(int)int {
    local x int
    x = param 0 int
    if x <= 0 goto L0
    x = x - 1
    x = staticinvoke %s.churnA(int)int x
    L0:
    return x
  }
`, prev)
		fmt.Fprintf(&b, `  method static churnC()java.lang.String {
    local s java.lang.String
    s = "padding payload %04d"
    return s
  }
`, i)
		b.WriteString("}\n")
	}
	app.Program.Merge(jimple.MustParse(b.String()))
}

func padClassName(pkg string, i int) string {
	return fmt.Sprintf("%s.pad.Pad%04d", pkg, i)
}

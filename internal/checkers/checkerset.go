package checkers

import (
	"fmt"
	"strconv"
	"strings"
)

// NumCheckerFamilies is the number of registered checker families:
//
//	1 request settings (connectivity check, timeout, retry config)
//	2 improper API parameters (retry count vs. context)
//	3 failure notification / error-type usage
//	4 response validity
//	5 offline-state handling (receivers/callbacks without recovery)
//	6 stale connectivity check (check-to-use distance)
//	7 endpoint hygiene (cleartext / hardcoded-IP URLs)
//	8 retry loops (aggressive loop, retry storm)
//
// The registry-completeness lint test (registry_test.go) fails when a
// family is added here without its corpus emitter, ground truth, report
// categories, and metrics counter.
const NumCheckerFamilies = 8

// CheckerSet selects which checker families run, as a bitmask over
// families 1..NumCheckerFamilies (bit i-1 enables family i). The zero
// value means "all families" so existing callers keep the full registry
// without opting in.
type CheckerSet uint

// allCheckersMask has every family bit set.
const allCheckersMask CheckerSet = 1<<NumCheckerFamilies - 1

// AllCheckers returns the set with every family enabled.
func AllCheckers() CheckerSet { return allCheckersMask }

// effective normalizes the set: zero (and any value with no in-range
// bits) means all families.
func (s CheckerSet) effective() CheckerSet {
	if s&allCheckersMask == 0 {
		return allCheckersMask
	}
	return s & allCheckersMask
}

// Enabled reports whether family (1-based) is selected.
func (s CheckerSet) Enabled(family int) bool {
	if family < 1 || family > NumCheckerFamilies {
		return false
	}
	return s.effective()&(1<<(family-1)) != 0
}

// Families returns the enabled family numbers in ascending order.
func (s CheckerSet) Families() []int {
	var out []int
	for f := 1; f <= NumCheckerFamilies; f++ {
		if s.Enabled(f) {
			out = append(out, f)
		}
	}
	return out
}

// String renders the set as the -checkers flag spelling: "all" for the
// full registry, else a compact comma list with ranges ("1,3,5-8").
func (s CheckerSet) String() string {
	e := s.effective()
	if e == allCheckersMask {
		return "all"
	}
	fams := e.Families()
	var parts []string
	for i := 0; i < len(fams); {
		j := i
		for j+1 < len(fams) && fams[j+1] == fams[j]+1 {
			j++
		}
		switch {
		case j == i:
			parts = append(parts, strconv.Itoa(fams[i]))
		case j == i+1:
			parts = append(parts, strconv.Itoa(fams[i]), strconv.Itoa(fams[j]))
		default:
			parts = append(parts, fmt.Sprintf("%d-%d", fams[i], fams[j]))
		}
		i = j + 1
	}
	return strings.Join(parts, ",")
}

// ParseCheckerSet parses the -checkers flag: "all" (or empty), or a
// comma list of family numbers and ranges, e.g. "1,2,8" or "5-8".
func ParseCheckerSet(s string) (CheckerSet, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "all" {
		return 0, nil
	}
	var set CheckerSet
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		lo, hi := tok, tok
		if dash := strings.IndexByte(tok, '-'); dash >= 0 {
			lo, hi = tok[:dash], tok[dash+1:]
		}
		a, errA := strconv.Atoi(lo)
		b, errB := strconv.Atoi(hi)
		if errA != nil || errB != nil || a < 1 || b > NumCheckerFamilies || a > b {
			return 0, fmt.Errorf("invalid checker selection %q (want \"all\" or families 1-%d, e.g. \"1,2,8\" or \"5-8\")", s, NumCheckerFamilies)
		}
		for f := a; f <= b; f++ {
			set |= 1 << (f - 1)
		}
	}
	return set, nil
}

// checkerStages maps pipeline stage names to the family that owns them,
// for ablation gating and the per-family report counters. The discovery,
// summary, and cache stages are family-independent infrastructure and are
// deliberately absent.
var checkerStages = map[string]int{
	"settings":      1,
	"parameters":    2,
	"notifications": 3,
	"responses":     4,
	"offlinestate":  5,
	"stalechecks":   6,
	"endpoints":     7,
	"retryloops":    8,
}

// FamilyOfStage reports which checker family (1-based) a pipeline stage
// belongs to; 0 for infrastructure stages.
func FamilyOfStage(stage string) int { return checkerStages[stage] }

// StageOfFamily returns the pipeline stage name owned by a family.
func StageOfFamily(family int) string {
	for name, f := range checkerStages {
		if f == family {
			return name
		}
	}
	return ""
}

// FamilyCauses maps each family to the report causes it emits, in report
// order. The completeness lint and the per-family accuracy experiment
// both key off this table.
func FamilyCauses(family int) []string {
	switch family {
	case 1:
		return []string{"no-connectivity-check", "no-timeout", "no-retry-config"}
	case 2:
		return []string{"no-retry-time-sensitive", "over-retry-service", "over-retry-post"}
	case 3:
		return []string{"no-failure-notification", "no-error-type-check"}
	case 4:
		return []string{"no-response-check"}
	case 5:
		return []string{"offline-state-no-recovery"}
	case 6:
		return []string{"stale-connectivity-check"}
	case 7:
		return []string{"cleartext-endpoint", "hardcoded-ip-endpoint"}
	case 8:
		return []string{"aggressive-retry-loop", "retry-storm"}
	}
	return nil
}

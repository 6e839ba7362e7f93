package dex

import "sort"

// RefClasses collects EachRefClass into the sorted set of referenced
// class names, "" dropped: the form the tests compare against the eager
// program's referenced classes.
func (l *Lazy) RefClasses() []string {
	var out []string
	l.EachRefClass(func(cls string) { out = append(out, cls) })
	sort.Strings(out)
	uniq := out[:0]
	for _, cls := range out {
		if cls != "" && (len(uniq) == 0 || uniq[len(uniq)-1] != cls) {
			uniq = append(uniq, cls)
		}
	}
	return uniq
}

// Fallbacks returns how many bodies the skim rejected but the
// materializing core accepted: a skim bug, pinned at zero by the tests.
func (l *Lazy) Fallbacks() int { return l.fallbacks }

package analysis

import "testing"

func TestCallGraphReachable(t *testing.T) {
	edges := map[string][]string{
		"m/a.Root":   {"m/a.mid", "m/b.Leaf"},
		"m/a.mid":    {"m/a.Root"}, // cycle back
		"m/a.island": {"m/a.islandHelper"},
	}
	hot := reachable(edges, []string{"m/a.Root"})
	for _, want := range []string{"m/a.Root", "m/a.mid", "m/b.Leaf"} {
		if !hot[want] {
			t.Errorf("%s not reachable from Root", want)
		}
	}
	for _, cold := range []string{"m/a.island", "m/a.islandHelper"} {
		if hot[cold] {
			t.Errorf("%s reachable but nothing connects it to Root", cold)
		}
	}
}

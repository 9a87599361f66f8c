package search

import (
	"context"
	"flag"
	"sort"
	"testing"
)

// updateCorpus re-pins every fixture under testdata/search/ from a
// fresh replay:
//
//	go test ./internal/search -run TestSearchCorpusParity -update
//
// Use it after an intentional model change; review the diff — every
// drift it bakes in is a behavior change the PR must explain.
var updateCorpus = flag.Bool("update", false, "rewrite testdata/search fixtures from a fresh replay")

// corpusDir is the committed fixture corpus at the repo root.
const corpusDir = "../../testdata/search"

// TestSearchCorpusParity replays every minimized finding the search has
// ever landed and pins the classified divergence byte-exactly: same
// category, same depth signature, same per-leg cycle counts. Any drift
// is a speculation-model change that must be explained (and, if
// intended, re-pinned with -update).
func TestSearchCorpusParity(t *testing.T) {
	fixtures, err := LoadFixtures(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(fixtures) == 0 {
		t.Fatalf("no fixtures under %s — the corpus must ship with at least the seeded Table 1 finding", corpusDir)
	}

	names := make([]string, 0, len(fixtures))
	for name := range fixtures {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		fx := fixtures[name]
		t.Run(name, func(t *testing.T) {
			got, d, err := fx.Replay()
			if err != nil {
				t.Fatal(err)
			}
			if *updateCorpus {
				fx.Expect = *got
				if _, err := WriteFixture(corpusDir, fx); err != nil {
					t.Fatal(err)
				}
				// A renamed key leaves the old file behind; flag it
				// rather than deleting data from under the developer.
				if FixtureName(got.Key) != name {
					t.Errorf("key changed %s -> %s: remove the stale fixture %s",
						fx.Expect.Key, got.Key, name)
				}
				return
			}
			if *got != fx.Expect {
				t.Errorf("replay drifted from pinned expectation\npinned: %+v\ngot:    %+v\n(diff on=%+v off=%+v; use -update after verifying the change is intended)",
					fx.Expect, *got, d.On.Arch, d.Off.Arch)
			}
			// Fixtures are minimized before landing; a fixture that
			// stops being minimal after a model change is stale evidence.
			if ok, err := reproduces(context.Background(), &rig{}, fx.Program, fx.Expect.Category); err != nil || !ok {
				t.Errorf("fixture no longer reproduces its category standalone (ok=%v err=%v)", ok, err)
			}
		})
	}
}

// TestSearchCorpusFilenames pins the name↔key correspondence so a
// hand-edited fixture cannot drift from its filename.
func TestSearchCorpusFilenames(t *testing.T) {
	fixtures, err := LoadFixtures(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	for name, fx := range fixtures {
		if want := FixtureName(fx.Expect.Key); want != name {
			t.Errorf("%s: filename does not match key %q (want %s)", name, fx.Expect.Key, want)
		}
	}
}

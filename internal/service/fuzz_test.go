package service

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzRequest drives arbitrary bodies through the request boundary the
// server exposes: decodeStrict, then Normalize, then Key. Nothing may
// panic; every count an accepted request carries lies between 1 and its
// ceiling; and a normalized request normalizes to itself and comes back
// from its JSON encoding equal, with an equal key. The seed corpus in
// testdata/fuzz/FuzzRequest holds every default request, the requests
// keys.golden pins, and each count at 0, -1, its ceiling, one past it
// and 2^62.
func FuzzRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var r Request
		if decodeStrict(body, &r) != nil {
			return
		}
		n, err := r.Normalize()
		if err != nil {
			return
		}
		for _, c := range byName[n.Experiment].counts {
			if v := *n.count(c.Name); v < 1 || v > c.Max {
				t.Fatalf("%s: accepted with %s %d, outside [1, %d]", body, c.Name, v, c.Max)
			}
		}
		again, err := n.Normalize()
		if err != nil || !reflect.DeepEqual(again, n) {
			t.Fatalf("%s: normalized %+v renormalizes to %+v, %v", body, n, again, err)
		}
		raw, err := json.Marshal(n)
		if err != nil {
			t.Fatal(err)
		}
		var back Request
		if err := decodeStrict(raw, &back); err != nil {
			t.Fatalf("%s: re-encoded as %s, which does not decode: %v", body, raw, err)
		}
		if back, err = back.Normalize(); err != nil || !reflect.DeepEqual(back, n) {
			t.Fatalf("%s: re-encoded as %s, which normalizes to %+v, %v; want %+v", body, raw, back, err, n)
		}
		if again.Key() != n.Key() || back.Key() != n.Key() {
			t.Fatalf("%s: equal normalized requests %+v hash differently", body, n)
		}
	})
}

// Package service is the experiment-serving subsystem: a long-running
// HTTP JSON API (cmd/phantom-server) that answers the same questions as
// the one-shot phantom CLI — Tables 1-5, Figures 6-7, the Section 7
// chain, the full report — from one shared, always-warm evaluation
// engine.
//
// The simulator is fully deterministic for a given (experiment, arch,
// seed, options) tuple, which the service turns into throughput three
// ways:
//
//   - a content-addressed result cache: the canonical hash of a
//     normalized request is the result's identity, so any client asking
//     an already-answered question gets the bytes back without a
//     simulation (LRU + byte-budget eviction, see Cache);
//   - singleflight coalescing: N concurrent identical requests cost one
//     simulation, with the execution context kept alive until the last
//     interested waiter disconnects (see flightGroup);
//   - a bounded scheduler: at most Workers simulations run at once and
//     at most QueueDepth more may wait; beyond that the server sheds
//     load with 429 + Retry-After instead of queueing unboundedly (see
//     scheduler).
//
// Served output is byte-identical to the CLI's stdout for the same
// request — both front ends render through Execute — and the whole
// subsystem reports into the process telemetry hub (request counters,
// queue-depth gauge, cache hits/misses, latency histograms) under the
// same no-perturbation invariant as the rest of the harness.
package service

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"phantom"
)

// Request names one experiment evaluation. Which fields an experiment
// takes is declared once in its catalog entry (see experiments), and
// each count's default and ceiling once in the root package (see
// phantom.Count). Normalize resolves the counts and zeroes every field
// the experiment does not take, so semantically equal requests
// normalize, and therefore hash, identically.
type Request struct {
	// Experiment is a catalog name, exactly as the CLI spells it.
	Experiment string `json:"experiment"`
	// Archs lists microarchitectures by name, or the aliases "all" /
	// "amd". Empty means the experiment's default set. Order and
	// duplicates are not semantic: normalization dedupes and sorts into
	// the paper's canonical order, which is also the order output
	// renders in.
	Archs []string `json:"archs,omitempty"`
	// Seed is the simulation seed.
	Seed int64 `json:"seed,omitempty"`
	// Trials is Table 1's per-cell trial count.
	Trials int `json:"trials,omitempty"`
	// Noise is Table 1's noise level; 0 means lab conditions.
	Noise float64 `json:"noise,omitempty"`
	// Bits is the covert-channel message size per run.
	Bits int `json:"bits,omitempty"`
	// Runs is the reboot/run count of the multi-run experiments.
	Runs int `json:"runs,omitempty"`
	// Bytes is the MDS leak size per run.
	Bytes int `json:"bytes,omitempty"`
	// Samples is Figure 7's independent-collision count.
	Samples int `json:"samples,omitempty"`
}

var (
	archAll = archNames(phantom.AllMicroarchs())
	archAMD = archNames(phantom.AMDMicroarchs())
	// archOrder is the paper's canonical arch order, the order Normalize
	// sorts into and served output renders in.
	archOrder = func() map[string]int {
		m := make(map[string]int, len(archAll))
		for i, a := range archAll {
			m[a] = i
		}
		return m
	}()
)

func archNames(archs []phantom.Microarch) []string {
	out := make([]string, len(archs))
	for i, a := range archs {
		out[i] = string(a)
	}
	return out
}

// Normalize validates req and returns its canonical form: aliases
// expanded, duplicates dropped, archs in paper order, every count the
// experiment takes resolved (0 is its default; a negative count or one
// over its ceiling is an error), and every other field forced to zero.
// Two requests that would render the same output normalize to the same
// value, so Key — and the content address of the result — is well
// defined.
func (r Request) Normalize() (Request, error) {
	e, ok := byName[r.Experiment]
	if !ok {
		return Request{}, fmt.Errorf("unknown experiment %q", r.Experiment)
	}
	n := Request{Experiment: r.Experiment, Seed: r.Seed}
	switch {
	case e.archs == "" && len(r.Archs) != 0:
		return Request{}, fmt.Errorf("experiment %q takes no arch list", r.Experiment)
	case e.archs == "":
	case len(r.Archs) == 0:
		n.Archs = append([]string(nil), e.defArchs...)
	default:
		archs, err := expandArchs(r.Archs)
		if err != nil {
			return Request{}, err
		}
		n.Archs = archs
	}
	if n.Seed == 0 {
		n.Seed = e.seed
	}
	for _, c := range e.counts {
		v, err := c.Resolve(*r.count(c.Name))
		if err != nil {
			return Request{}, err
		}
		*n.count(c.Name) = v
	}
	if e.noise {
		if err := phantom.CheckTable1Noise(r.Noise); err != nil {
			return Request{}, err
		}
		if r.Noise < 0 {
			return Request{}, errors.New("negative noise")
		}
		if r.Noise != 0 { // -0 is lab conditions too, and must hash as 0 does
			n.Noise = r.Noise
		}
	}
	return n, nil
}

// expandArchs resolves aliases, validates names, dedupes, and sorts
// into canonical order.
func expandArchs(specs []string) ([]string, error) {
	seen := make(map[string]bool)
	var out []string
	add := func(names ...string) {
		for _, a := range names {
			if !seen[a] {
				seen[a] = true
				out = append(out, a)
			}
		}
	}
	for _, s := range specs {
		switch s {
		case "all":
			add(archAll...)
		case "amd":
			add(archAMD...)
		default:
			if _, ok := archOrder[s]; !ok {
				return nil, fmt.Errorf("unknown microarchitecture %q", s)
			}
			add(s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return archOrder[out[i]] < archOrder[out[j]] })
	return out, nil
}

// microarchs converts a normalized arch list back to the typed form.
func microarchs(names []string) []phantom.Microarch {
	out := make([]phantom.Microarch, len(names))
	for i, a := range names {
		out[i] = phantom.Microarch(a)
	}
	return out
}

// Key is the content address of a normalized request: the hex SHA-256
// of its canonical encoding. Call it on Normalize's result only —
// hashing a raw request would let two spellings of the same question
// land in different cache slots.
func (r Request) Key() string {
	h := sha256.New()
	writeStr := func(s string) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	writeU64 := func(v uint64) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], v)
		h.Write(n[:])
	}
	writeStr(r.Experiment)
	writeU64(uint64(len(r.Archs)))
	for _, a := range r.Archs {
		writeStr(a)
	}
	writeU64(uint64(r.Seed))
	writeU64(uint64(r.Trials))
	writeU64(math.Float64bits(r.Noise))
	writeU64(uint64(r.Bits))
	writeU64(uint64(r.Runs))
	writeU64(uint64(r.Bytes))
	writeU64(uint64(r.Samples))
	return hex.EncodeToString(h.Sum(nil))
}

// Timeout returns the per-experiment execution deadline given the
// server's base timeout: heavier experiments (fig7's solver, the full
// report) get proportionally longer before the scheduler cancels them.
func (r Request) Timeout(base time.Duration) time.Duration {
	if e, ok := byName[r.Experiment]; ok {
		return base * time.Duration(e.weight)
	}
	return base
}

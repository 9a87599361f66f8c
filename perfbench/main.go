// Command perfbench is the repository's benchmark. It runs one named
// workload against the simulator or the serving tier, checks every
// output it produces, and prints each metric by name with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set of BENCHMARK.json;
// with --trace 1 they are the per-layer set, measured by decomposing
// the workload into timed calls to each module's public functions.
//
// Run it from the repository root through perfbench/run.sh, which
// builds it from the checkout's sources:
//
//	bash perfbench/run.sh --workload kaslr_reboots --seed 3 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all            # every workload once
//	bash perfbench/run.sh --workload search --repeat 5   # steadiness
//
// See perfbench/README.md for the workloads and metric definitions.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"phantom/internal/telemetry"
)

// env is what a workload instance is built from.
type env struct {
	seed int64
	// dir is scratch space inside the checkout (the serving tier's
	// stores live there).
	dir string
	// probe asks for a short instance: a layer probe inside another
	// workload's traced run, there to measure the layers that workload
	// does not reach.
	probe bool
	// refs caches reference outputs across set-ups, so that checking
	// machinery is not counted as set-up.
	refs map[string]string
}

// unitResult is what one unit of work produced.
type unitResult struct {
	items     int              // work items done: reports, reboots, programs, requests
	attempted int              // outputs checked
	failed    int              // outputs that failed their check
	latMS     []float64        // per-item latencies; nil when the unit is the item
	coldMS    []float64        // latencies of requests that paid for a simulation
	sums      map[int64]string // SHA-256 of a batch unit's output, by input seed
}

func (u *unitResult) add(o unitResult) {
	u.items += o.items
	u.attempted += o.attempted
	u.failed += o.failed
	u.latMS = append(u.latMS, o.latMS...)
	u.coldMS = append(u.coldMS, o.coldMS...)
	for seed, d := range o.sums {
		if u.sums == nil {
			u.sums = make(map[int64]string)
		}
		u.sums[seed] = d
	}
}

// layerVals are per-layer figures a traced unit measured itself, by
// per-layer metric name.
type layerVals map[string]float64

// bench is one set-up workload instance.
type bench interface {
	// unit runs one unit of work on the given input untraced, timing
	// it with m, and checks its output. Input k of a batch workload is
	// its inputs at the run's seed plus k.
	unit(m *meter, input int) (unitResult, error)
	// traced runs one unit on input 0 decomposed into timed public
	// calls under the root span, checks that it reproduces the untraced
	// output, and returns the simulated counts of the part that mirrors
	// unit.
	traced(m *meter, tr *tracer, root int) (unitResult, layerVals, simCounts, error)
	close() error
}

// workload names a benchmark workload.
type workload struct {
	name string
	item string // what throughput_per_s counts
	// sameCounts marks a workload whose traced decomposition performs
	// exactly the simulated work of its untraced unit, so the hub's
	// counts of the two must be identical.
	sameCounts bool
	// inputs is how many inputs an untraced run rotates through, so
	// that its medians average over inputs whose cost differs by seed
	// while every input after the first round is checked against its
	// earlier output.
	inputs int
	// procs is the GOMAXPROCS the workload runs with; 0 keeps the
	// process's default.
	procs int
	setup func(e env) (bench, error)
}

// defaultProcs is the process's GOMAXPROCS before any workload sets it.
var defaultProcs = runtime.GOMAXPROCS(0)

// useProcs sets GOMAXPROCS for w.
func useProcs(w workload) {
	if w.procs > 0 {
		runtime.GOMAXPROCS(w.procs)
	} else {
		runtime.GOMAXPROCS(defaultProcs)
	}
}

// workloads lists the benchmark's workloads; the order is also the
// order in which a traced run probes the others.
var workloads = []workload{
	{name: "report", item: "reports", sameCounts: true, inputs: 4, setup: setupReport},
	{name: "kaslr_reboots", item: "reboots", sameCounts: true, inputs: 8, setup: setupKASLR},
	{name: "search", item: "programs", sameCounts: true, inputs: 4, setup: setupSearch},
	// serve runs on one core: with its one client there is no parallel
	// work to spread, and on two cores each request's hand-offs between
	// threads made the hot latency move by a fifth with the host's load.
	{name: "serve", item: "requests", inputs: 1, procs: 1, setup: setupServe},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// A run sets its workload up at least setupRounds times and until
// setupSeconds are spent; setup_s is the median. A set-up of a few
// milliseconds varies by half from one to the next, so short ones need
// many.
const (
	setupRounds  = 5
	setupSeconds = 1.5
)

// outDir holds span dumps, layer tables, results and scratch state.
const outDir = ".bench_build/perfbench"

func main() {
	name := flag.String("workload", "all", "workload to run: report, kaslr_reboots, search, serve, or all")
	seed := flag.Int64("seed", 1, "workload seed; the inputs are a pure function of it")
	seconds := flag.Float64("seconds", 10, "how long to measure")
	trace := flag.Int("trace", 0, "1 = the traced per-layer run")
	repeat := flag.Int("repeat", 0, "steadiness mode: run the workload this many times on successive seeds")
	flag.Parse()

	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fail(err)
	}
	switch {
	case *trace != 0 && *trace != 1:
		fail(fmt.Errorf("--trace must be 0 or 1"))
	case *repeat > 0:
		err = steadiness(spec, *name, *seed, *seconds, *trace, *repeat)
	case *name == "all":
		err = runAll(*seed, *seconds, *trace)
	default:
		w, ok := findWorkload(*name)
		if !ok {
			fail(fmt.Errorf("unknown workload %q", *name))
		}
		err = runOne(spec, w, *seed, *seconds, *trace == 1)
	}
	if err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// errMismatch reports that outputs failed their checks; the result line
// is still printed.
var errMismatch = errors.New("output check failed")

// runOne sets up, measures and reports one workload.
func runOne(spec *benchSpec, w workload, seed int64, seconds float64, traced bool) error {
	dir := filepath.Join(outDir, fmt.Sprintf("run-%s-%d-%d", w.name, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	e := env{seed: seed, dir: dir, refs: make(map[string]string)}
	useProcs(w)

	var setups []float64
	var b bench
	for len(setups) < setupRounds || sum(setups) < setupSeconds {
		if b != nil {
			if err := b.close(); err != nil {
				return err
			}
		}
		// Each set-up starts on a collected heap, so that it does not pay
		// for collecting the previous one's garbage.
		runtime.GC()
		start := time.Now()
		var err error
		if b, err = w.setup(e); err != nil {
			return fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer b.close()

	st := newStamp(w, seed)
	var res result
	var err error
	if traced {
		res, err = runTraced(spec, w, b, e, seconds, &st)
	} else {
		res, err = runUntraced(spec, w, b, seconds, setups, &st)
	}
	if err != nil {
		return err
	}
	if err := b.close(); err != nil {
		return err
	}
	st.print(os.Stdout)
	res.printHuman(os.Stdout)
	if err := writeJSONFile(filepath.Join(outDir, fmt.Sprintf("result-%s-seed%d-trace%d.json", w.name, seed, boolInt(traced))),
		map[string]any{"stamp": st, "result": res.line(), "notes": res.notes, "setups_s": setups, "unit_walls_s": res.unitWalls}); err != nil {
		return err
	}
	line, err := json.Marshal(res.line())
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if res.failed > 0 {
		return errMismatch
	}
	return nil
}

// window runs one warm-up unit of b on input 0, checked but not
// measured, so that heap growth and lazy set-up finish before timing;
// then it starts units, checks included, until the budget is spent,
// passing each the index of its turn.
func window(b bench, seconds float64, unit func(turn int) (unitResult, error)) (unitResult, error) {
	var warm meter
	w, err := b.unit(&warm, 0)
	if err != nil {
		return w, err
	}
	tot := unitResult{attempted: w.attempted, failed: w.failed, sums: w.sums}
	start := time.Now()
	for turn := 1; time.Since(start).Seconds() < seconds; turn++ {
		r, err := unit(turn)
		if err != nil {
			return tot, err
		}
		tot.add(r)
	}
	return tot, nil
}

func runUntraced(spec *benchSpec, w workload, b bench, seconds float64, setups []float64, st *stamp) (result, error) {
	var m meter
	tot, err := window(b, seconds, func(turn int) (unitResult, error) { return b.unit(&m, turn%w.inputs) })
	if err != nil {
		return result{}, err
	}
	vals, notes := endToEnd(w, m.samples, tot, setups)
	st.Workers = runtime.GOMAXPROCS(0)
	res, err := newResult(spec.EndToEnd, vals, tot, notes)
	for _, s := range m.samples {
		res.unitWalls = append(res.unitWalls, s.Wall.Seconds())
	}
	return res, err
}

// endToEnd derives the end-to-end metrics from the untraced units.
func endToEnd(w workload, samples []sample, tot unitResult, setups []float64) (map[string]float64, []string) {
	var walls, unitMS []float64
	var wallSum, cpuSum, allocSum float64
	for _, s := range samples {
		walls = append(walls, s.Wall.Seconds())
		wallSum += s.Wall.Seconds()
		unitMS = append(unitMS, float64(s.Wall)/float64(time.Millisecond))
		cpuSum += s.CPU.Seconds()
		allocSum += float64(s.AllocBytes) / 1e6
	}
	lat, latWhat := tot.latMS, "per request"
	if lat == nil {
		lat, latWhat = unitMS, "per unit"
	}
	p, tailV, ok := tail(lat, 99)
	tailNote := fmt.Sprintf("tail percentile p%g", p)
	if !ok {
		// The slowest of a few units says more about the machine's
		// noise than about the program's tail.
		tailNote = fmt.Sprintf("no percentile has ten samples above it, so latency_p99_ms repeats the median (maximum %.4g)", tailV)
		tailV = median(lat)
	}
	// Wall, CPU and allocation are means over the run's units. A unit's
	// wall time varies by a fifth from one to the next on a shared
	// two-core host; over the dozen units of a report run the median
	// moved twice as much between runs as the mean did.
	n := float64(len(samples))
	vals := map[string]float64{
		"wall_s":           wallSum / n,
		"cpu_s":            cpuSum / n,
		"throughput_per_s": float64(tot.items) / wallSum,
		"latency_p50_ms":   median(lat),
		"latency_p99_ms":   tailV,
		"alloc_mb":         allocSum / n,
		"setup_s":          median(setups),
	}
	shown := walls[:min(len(walls), 12)]
	notes := []string{
		fmt.Sprintf("units=%d items=%d (%s) in %.2f s; first unit walls %.3f s", len(samples), tot.items, w.item, wallSum, shown),
		fmt.Sprintf("latency %s: n=%d, %s", latWhat, len(lat), tailNote),
		fmt.Sprintf("fail_pct=%.3f (%d of %d checked outputs)", pct(tot.failed, tot.attempted), tot.failed, tot.attempted),
	}
	for _, seed := range sortedKeys(tot.sums) {
		notes = append(notes, fmt.Sprintf("output sha256 at seed %d: %s", seed, tot.sums[seed]))
	}
	if tot.coldMS != nil {
		notes = append(notes, fmt.Sprintf("cold_p50_ms=%.4f cold_p90_ms=%.4f (n=%d requests that paid for a simulation, %.1f%% of all request time)",
			median(tot.coldMS), percentile(tot.coldMS, 90), len(tot.coldMS), 100*sum(tot.coldMS)/sum(lat)))
	}
	return vals, notes
}

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// runTraced alternates untraced and traced units of the workload, then
// probes the layers the workload does not reach with short traced
// units of the others.
func runTraced(spec *benchSpec, w workload, b bench, e env, seconds float64, st *stamp) (result, error) {
	tr := newTracer()
	var um, tm meter
	var acc layerAcc
	tot, err := window(b, seconds, func(int) (unitResult, error) {
		u, err := b.unit(&um, 0)
		if err != nil {
			return u, err
		}
		r, err := acc.tracedUnit(b, &tm, tr)
		u.add(r)
		return u, err
	})
	if err != nil {
		return result{}, err
	}
	if w.sameCounts {
		if err := checkSameCounts(b, acc.counts); err != nil {
			return result{}, err
		}
	}
	vals := acc.metrics(tr.snapshot(), &tm)
	vals["trace_overhead_pct"] = 100 * (medianWall(tm.samples)/medianWall(um.samples) - 1)
	st.Workers = acc.workers
	if st.Workers == 0 { // no sweep ran: the serving tier's default pool
		st.Workers = runtime.GOMAXPROCS(0)
	}

	// A count of work this workload never does is zero. Any other layer
	// it does not reach has no figure of its own; one short traced unit
	// of each other workload (a probe) stands in, and a note lists them.
	var missing []metricDef
	for _, d := range spec.PerLayer {
		if _, ok := vals[d.Name]; ok {
			continue
		}
		if d.Unit == "count" {
			vals[d.Name] = 0
			continue
		}
		missing = append(missing, d)
	}
	var notes []string
	for _, o := range workloads {
		if o.name == w.name || len(missing) == 0 {
			continue
		}
		pv, err := probe(o, e)
		if err != nil {
			return result{}, fmt.Errorf("probe %s: %w", o.name, err)
		}
		var names []string
		rest := missing[:0]
		for _, d := range missing {
			if v, ok := pv[d.Name]; ok {
				vals[d.Name] = v
				names = append(names, d.Name)
			} else {
				rest = append(rest, d)
			}
		}
		missing = rest
		if len(names) > 0 {
			notes = append(notes, fmt.Sprintf("stand-ins from a %s probe, not work of %s: %s", o.name, w.name, strings.Join(names, " ")))
		}
	}
	spans := tr.snapshot()
	rows := selfTimes(spans)
	if err := writeJSONFile(filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, e.seed)),
		map[string]any{"stamp": st, "layers": rows, "spans": spans}); err != nil {
		return result{}, err
	}
	printLayers(os.Stdout, rows)
	return newResult(spec.PerLayer, vals, tot, notes)
}

// probe sets up a short instance of o and runs one traced unit of it.
func probe(o workload, e env) (layerVals, error) {
	dir := filepath.Join(e.dir, "probe-"+o.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	useProcs(o)
	b, err := o.setup(env{seed: e.seed, dir: dir, probe: true, refs: make(map[string]string)})
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	var m meter
	var acc layerAcc
	_, err = acc.tracedUnit(b, &m, tr)
	if cerr := b.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return acc.metrics(tr.snapshot(), &m), nil
}

// checkSameCounts runs one untraced unit with the telemetry hub on and
// requires its simulated counts to equal those of every traced unit:
// the decomposition must do exactly the work of the one-call path.
func checkSameCounts(b bench, traced []simCounts) error {
	telemetry.Enable(telemetry.Config{})
	var m meter
	_, err := b.unit(&m, 0)
	ref := hubCounts()
	if derr := telemetry.Disable(); err == nil {
		err = derr
	}
	if err != nil {
		return err
	}
	for i, c := range traced {
		if c != ref {
			return fmt.Errorf("traced unit %d simulated %+v, the untraced path %+v: %w", i, c, ref, errMismatch)
		}
	}
	return nil
}

func medianWall(ss []sample) float64 {
	var xs []float64
	for _, s := range ss {
		xs = append(xs, s.Wall.Seconds())
	}
	return median(xs)
}

// layerAcc accumulates the traced units of one instance.
type layerAcc struct {
	vals    []layerVals
	counts  []simCounts
	sweeps  []sweepLog
	workers int
}

// tracedUnit runs one traced unit with the telemetry hub on, its run
// log captured for the sweep layer.
func (a *layerAcc) tracedUnit(b bench, m *meter, tr *tracer) (unitResult, error) {
	var log bytes.Buffer
	telemetry.Enable(telemetry.Config{RunLog: &log})
	root := tr.begin("unit", -1)
	r, v, c, err := b.traced(m, tr, root)
	tr.end(root)
	if derr := telemetry.Disable(); err == nil {
		err = derr
	}
	if err != nil {
		return r, err
	}
	sweeps, err := parseRunLog(log.Bytes())
	if err != nil {
		return r, err
	}
	a.vals = append(a.vals, v)
	a.counts = append(a.counts, c)
	a.sweeps = append(a.sweeps, sweeps...)
	if r.failed > 0 {
		return r, fmt.Errorf("traced unit: %d of %d outputs differ: %w", r.failed, r.attempted, errMismatch)
	}
	return r, nil
}

// metrics derives the per-layer metrics this instance's traced units
// measured, and records the largest sweep pool they ran. Span-timed
// layers come from the spans by name; the rest from the units' own
// figures, the hub's counts and the run log.
func (a *layerAcc) metrics(spans []span, m *meter) map[string]float64 {
	out := make(map[string]float64)
	spanMed := func(metric, name string, scale float64) {
		if d := durations(spans, name); len(d) > 0 {
			out[metric] = median(d) * scale
		}
	}
	if d := durations(spans, "kernel.boot"); len(d) > 0 {
		out["kernel.boot_ms_p50"] = median(d)
		out["kernel.boot_ms_p90"] = percentile(d, 90)
	}
	spanMed("pipeline.new_us", "pipeline.new", 1e3)
	spanMed("core.image_kaslr_ms", "core.image_kaslr", 1)
	spanMed("core.physmap_kaslr_ms", "core.physmap_kaslr", 1)
	spanMed("core.physaddr_ms", "core.physaddr", 1)
	spanMed("core.mds_leak_ms", "core.mds_leak", 1)
	for _, s := range reportSlugs {
		spanMed("report."+s+"_s", "report."+s, 1e-3)
	}
	spanMed("search.generate_us", "search.generate", 1e3)
	spanMed("search.rundiff_ms", "search.rundiff", 1)
	spanMed("search.classify_us", "search.classify", 1e3)
	spanMed("search.minimize_ms", "search.minimize", 1)
	spanMed("service.execute_ms", "service.execute", 1)
	spanMed("service.cold_ms", "serve.cold", 1)
	spanMed("store.get_us", "store.get", 1e3)
	spanMed("store.put_us", "store.put", 1e3)
	if hits := durations(spans, "serve.memory_hit_local"); len(hits) > 0 {
		out["service.hit_us_p50"] = median(hits) * 1e3
		_, v, _ := tail(hits, 99)
		out["service.hit_us_p99"] = v * 1e3
		if prox := durations(spans, "serve.memory_hit_proxied"); len(prox) > 0 {
			out["cluster.hop_us"] = (median(prox) - median(hits)) * 1e3
		}
	}

	keys := make(map[string]bool)
	for _, v := range a.vals {
		for k := range v {
			keys[k] = true
		}
	}
	for k := range keys {
		var xs []float64
		for _, v := range a.vals {
			if x, ok := v[k]; ok {
				xs = append(xs, x)
			}
		}
		out[k] = median(xs)
	}

	var ins, cyc, rst, pdh []float64
	for _, c := range a.counts {
		ins = append(ins, float64(c.Instructions))
		cyc = append(cyc, float64(c.Cycles))
		rst = append(rst, float64(c.Resteers))
		if c.Predecode > 0 {
			pdh = append(pdh, 100*float64(c.PredecodeHits)/float64(c.Predecode))
		}
	}
	if len(ins) > 0 {
		out["pipeline.instructions"] = median(ins)
		out["pipeline.cycles"] = median(cyc)
		out["pipeline.resteers"] = median(rst)
	}
	if len(pdh) > 0 {
		out["pipeline.predecode_hit_pct"] = median(pdh)
	}

	if jobMS, wait, busy, straggle, workers := sweepStats(a.sweeps); len(jobMS) > 0 {
		out["sweep.job_ms_p50"] = median(jobMS)
		out["sweep.job_ms_p90"] = percentile(jobMS, 90)
		out["sweep.wait_ms"] = wait
		out["sweep.busy_pct"] = busy
		out["sweep.straggler_ms"] = straggle
		a.workers = workers
	}

	var gc, cpu float64
	for _, s := range m.samples {
		gc += s.GCCPU
		cpu += s.TotalCPU
	}
	if cpu > 0 {
		out["go.gc_cpu_pct"] = 100 * gc / cpu
	}
	return out
}

// result is one run's outcome in the shape of the final JSON line.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]metricValue
	order     []string
	notes     []string
	unitWalls []float64 // every measured unit's wall time, untraced runs only
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// newResult checks that vals holds exactly the metrics defs names.
func newResult(defs []metricDef, vals map[string]float64, tot unitResult, notes []string) (result, error) {
	r := result{
		correct:   tot.failed == 0,
		attempted: max(tot.attempted, 1),
		failed:    tot.failed,
		metrics:   make(map[string]metricValue),
		notes:     notes,
	}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return r, fmt.Errorf("metric %s was not measured", d.Name)
		}
		r.metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		r.order = append(r.order, d.Name)
	}
	return r, nil
}

func (r result) line() map[string]any {
	return map[string]any{
		"correct":   r.correct,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   r.metrics,
	}
}

func (r result) printHuman(w io.Writer) {
	for _, name := range r.order {
		m := r.metrics[name]
		fmt.Fprintf(w, "%-28s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
}

func printLayers(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "# %-24s %8s %12s %12s\n", "layer self time", "spans", "total_ms", "self_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "# %-24s %8d %12.3f %12.3f\n", r.Name, r.Count, r.TotalMS, r.SelfMS)
	}
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[int64]V) []int64 {
	out := make([]int64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

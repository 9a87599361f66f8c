package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterShardedConcurrency(t *testing.T) {
	var c Counter
	const perShard = 1000
	var wg sync.WaitGroup
	for shard := 0; shard < NumShards*2; shard++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			for i := 0; i < perShard; i++ {
				c.Inc(shard)
			}
		}(shard)
	}
	wg.Wait()
	if got, want := c.Value(), uint64(NumShards*2*perShard); got != want {
		t.Errorf("Value() = %d, want %d", got, want)
	}
	c.Add(5, 7)
	if got := c.Value(); got != NumShards*2*perShard+7 {
		t.Errorf("after Add: %d", got)
	}
}

func TestNilHandlesAreNoOps(t *testing.T) {
	var c *Counter
	c.Inc(0)
	c.Add(3, 9)
	if c.Value() != 0 {
		t.Error("nil Counter has a value")
	}
	var g *Gauge
	g.Set(4)
	g.Add(-2)
	if g.Value() != 0 {
		t.Error("nil Gauge has a value")
	}
	var h *Histogram
	h.Observe(0, 100)
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Error("nil Registry returned non-nil handles")
	}
	if s := r.Snapshot(); s.Counters != nil || s.Gauges != nil {
		t.Error("nil Registry snapshot not empty")
	}
	var l *runLog
	l.record(record{Type: "job"})
	if err := l.flush(); err != nil {
		t.Errorf("nil runLog flush: %v", err)
	}
	var p *progress
	p.update("x", true)
	p.finish()
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Errorf("Value() = %d, want 7", got)
	}
}

func TestHistBucketBounds(t *testing.T) {
	// Power-of-four buckets: bucket i covers (4^i-1, 4^(i+1)-1].
	cases := []struct {
		v    uint64
		want int
	}{
		{0, 0}, {1, 1}, {3, 1}, {4, 2}, {15, 2}, {16, 3},
		{1 << 20, 11}, {^uint64(0), histMaxBuckets - 1},
	}
	for _, c := range cases {
		if got := histBucket(c.v); got != c.want {
			t.Errorf("histBucket(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	for i := 0; i < histMaxBuckets-1; i++ {
		if got := histBucket(histBound(i)); got != i {
			t.Errorf("histBound(%d)=%d lands in bucket %d", i, histBound(i), got)
		}
		if got := histBucket(histBound(i) + 1); got != i+1 {
			t.Errorf("histBound(%d)+1 lands in bucket %d, want %d", i, got, i+1)
		}
	}
}

func TestHistogramSnapshot(t *testing.T) {
	var h Histogram
	h.Observe(0, 3)
	h.Observe(1, 3)
	h.Observe(2, 100)
	s := h.snapshot()
	if s.Count != 3 || s.Sum != 106 {
		t.Errorf("count=%d sum=%d", s.Count, s.Sum)
	}
	if s.Buckets["3"] != 2 {
		t.Errorf("bucket 3 = %d, want 2", s.Buckets["3"])
	}
	if s.Buckets["255"] != 1 {
		t.Errorf("bucket 255 = %d, want 1 (buckets: %v)", s.Buckets["255"], s.Buckets)
	}
	h.Observe(0, ^uint64(0))
	if s := h.snapshot(); s.Buckets["inf"] != 1 {
		t.Errorf("overflow bucket = %d (buckets: %v)", s.Buckets["inf"], s.Buckets)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1, c2 := r.Counter("a"), r.Counter("a")
	if c1 != c2 {
		t.Error("same name returned distinct counters")
	}
	r.Counter("b").Inc(0)
	r.Gauge("depth").Set(5)
	r.Histogram("lat").Observe(0, 9)
	s := r.Snapshot()
	if s.Counters["b"] != 1 || s.Gauges["depth"] != 5 || s.Histograms["lat"].Count != 1 {
		t.Errorf("snapshot: %+v", s)
	}
}

// decodeLines parses a JSONL buffer into records.
func decodeLines(t *testing.T, b []byte) []record {
	t.Helper()
	var recs []record
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", sc.Text(), err)
		}
		recs = append(recs, r)
	}
	return recs
}

// TestRunLogSchema drives a full hub session through the sweep observer
// and pins the run-log record sequence and fields documented in
// DESIGN.md.
func TestRunLogSchema(t *testing.T) {
	var buf bytes.Buffer
	Enable(Config{RunLog: &buf, Label: "unit"})
	s := Sweep("demo", 3)
	if s == nil {
		t.Fatal("Sweep returned nil with an active hub")
	}
	s.SweepStart(3, 2)
	for job := 0; job < 3; job++ {
		s.JobStart(job, job%2)
		var err error
		if job == 2 {
			err = errors.New("boom")
		}
		s.JobDone(job, job%2, 5*time.Millisecond, err)
	}
	s.SweepEnd()
	if err := Disable(); err != nil {
		t.Fatal(err)
	}

	recs := decodeLines(t, buf.Bytes())
	if len(recs) != 6 { // start + 3 jobs + end + summary
		t.Fatalf("got %d records: %+v", len(recs), recs)
	}
	if r := recs[0]; r.Type != "sweep_start" || r.Sweep != "demo" || r.Jobs != 3 || r.Workers != 2 {
		t.Errorf("sweep_start: %+v", r)
	}
	for i, r := range recs[1:4] {
		if r.Type != "job" || r.Sweep != "demo" || r.Job != i || r.MS <= 0 {
			t.Errorf("job record %d: %+v", i, r)
		}
	}
	if recs[3].Err != "boom" {
		t.Errorf("failed job record carries no error: %+v", recs[3])
	}
	if r := recs[4]; r.Type != "sweep_end" || r.Done != 3 || r.Errors != 1 {
		t.Errorf("sweep_end: %+v", r)
	}
	sum := recs[5]
	if sum.Type != "summary" || sum.Label != "unit" || sum.Snap == nil {
		t.Fatalf("summary: %+v", sum)
	}
	if got := sum.Snap.Counters["sweep_jobs_done"]; got != 3 {
		t.Errorf("summary sweep_jobs_done = %d", got)
	}
	if got := sum.Snap.Counters["sweep_job_errors"]; got != 1 {
		t.Errorf("summary sweep_job_errors = %d", got)
	}
	if got := sum.Snap.Histograms["sweep_job_latency_ns"].Count; got != 3 {
		t.Errorf("latency histogram count = %d", got)
	}
	if got := sum.Snap.Gauges["sweep_jobs_queued"]; got != 0 {
		t.Errorf("queued gauge did not drain: %d", got)
	}
}

func TestProgressRendering(t *testing.T) {
	var buf bytes.Buffer
	p := newProgress(&buf)
	p.update("first", true)
	p.update("throttled-away", false) // within the 100ms throttle
	p.update("second", true)
	p.finish()
	out := buf.String()
	if !strings.Contains(out, "\rfirst\x1b[K") || !strings.Contains(out, "\rsecond\x1b[K") {
		t.Errorf("renderings missing: %q", out)
	}
	if strings.Contains(out, "throttled-away") {
		t.Errorf("throttled update rendered: %q", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Errorf("finish did not terminate the line: %q", out)
	}
	p.finish()
	if got := buf.String(); strings.HasSuffix(got, "\n\n") {
		t.Error("second finish wrote another newline")
	}
}

func TestProgressLineContent(t *testing.T) {
	Enable(Config{})
	defer Disable()
	s := Sweep("kaslr", 100)
	s.SweepStart(100, 4)
	s.start = time.Now().Add(-10 * time.Second) // 10s elapsed
	for i := 0; i < 41; i++ {
		s.done.Add(1)
	}
	line := s.progressLine()
	for _, want := range []string{"kaslr", "job 41/100", "4 workers", "jobs/s", "ETA"} {
		if !strings.Contains(line, want) {
			t.Errorf("progress line %q missing %q", line, want)
		}
	}
	s.errs.Add(2)
	if line := s.progressLine(); !strings.Contains(line, "2 failed") {
		t.Errorf("progress line %q missing failure count", line)
	}
}

// TestProgressFinalLine pins the SweepEnd regression fix: the persistent
// line left in the scrollback must show the completed (100%) state with
// the total elapsed time, not whatever the last 100ms throttle tick
// happened to render.
func TestProgressFinalLine(t *testing.T) {
	var buf bytes.Buffer
	Enable(Config{Progress: &buf})
	s := Sweep("kaslr", 3)
	s.SweepStart(3, 2)
	s.start = time.Now().Add(-2 * time.Second)
	for i := 0; i < 3; i++ {
		s.done.Add(1)
	}
	s.SweepEnd()
	if err := Disable(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	final := out[strings.LastIndex(strings.TrimRight(out, "\n"), "\r")+1:]
	for _, want := range []string{"job 3/3", "100%", "done in"} {
		if !strings.Contains(final, want) {
			t.Errorf("final progress line %q missing %q", final, want)
		}
	}
	if strings.Contains(final, "ETA") {
		t.Errorf("final progress line %q still renders an ETA", final)
	}

	// A partially failed sweep must not claim 100%.
	s = &SweepScope{total: 4, workers: 2, start: time.Now()}
	s.done.Add(2)
	s.errs.Add(2)
	if line := s.finalLine(); !strings.Contains(line, "50%") || !strings.Contains(line, "2 failed") {
		t.Errorf("partial final line %q should report 50%% and 2 failed", line)
	}
}

func TestFormatETA(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{-time.Second, "00:00"},
		{42 * time.Second, "00:42"},
		{15 * time.Minute, "15:00"},
		{2*time.Hour + 3*time.Minute + 4*time.Second, "2:03:04"},
	}
	for _, c := range cases {
		if got := formatETA(c.d); got != c.want {
			t.Errorf("formatETA(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestFormatRate(t *testing.T) {
	cases := []struct {
		r    float64
		want string
	}{
		{0.5, "0.5"}, {42, "42"}, {1234, "1.2k"}, {2.5e6, "2.5M"},
	}
	for _, c := range cases {
		if got := formatRate(c.r); got != c.want {
			t.Errorf("formatRate(%g) = %q, want %q", c.r, got, c.want)
		}
	}
}

func TestEnableDisableLifecycle(t *testing.T) {
	if Active() != nil {
		t.Fatal("hub active at test start")
	}
	h := Enable(Config{})
	if Active() != h {
		t.Error("Enable did not activate the hub")
	}
	CountExperiment("demo")
	if got := h.Registry().Counter("experiment_demo").Value(); got != 1 {
		t.Errorf("experiment counter = %d", got)
	}
	stats, shard0 := MachineStats()
	if stats == nil {
		t.Fatal("MachineStats nil with active hub")
	}
	_, shard1 := MachineStats()
	if shard0 == shard1 {
		t.Error("MachineStats does not round-robin shards")
	}
	if err := Disable(); err != nil {
		t.Fatal(err)
	}
	if Active() != nil {
		t.Error("Disable left the hub active")
	}
	if err := Disable(); err != nil {
		t.Errorf("second Disable: %v", err)
	}
}

func TestDebugServer(t *testing.T) {
	Enable(Config{})
	defer Disable()
	Active().Registry().Counter("pipeline_runs").Add(0, 42)
	Active().Registry().Histogram("sweep_job_latency_ns").Observe(0, 9)

	d, err := StartDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + d.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	if got := get("/healthz"); got != "ok\n" {
		t.Errorf("/healthz = %q", got)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(get("/metrics")), &snap); err != nil {
		t.Fatalf("/metrics is not JSON: %v", err)
	}
	if snap.Counters["pipeline_runs"] != 42 {
		t.Errorf("/metrics counters: %v", snap.Counters)
	}
	text := get("/metrics?format=text")
	for _, want := range []string{"pipeline_runs 42", "sweep_job_latency_ns_count 1", "sweep_job_latency_ns_sum 9"} {
		if !strings.Contains(text, want) {
			t.Errorf("text metrics missing %q:\n%s", want, text)
		}
	}
	if !strings.Contains(get("/debug/pprof/"), "profile") {
		t.Error("/debug/pprof/ index not served")
	}
}

// TestRunLogStickyError pins the error path: the first sink failure
// sticks and surfaces from flush (and thus from Disable).
func TestRunLogStickyError(t *testing.T) {
	l := newRunLog(failWriter{})
	// bufio only hits the sink once its buffer fills or on flush.
	l.record(record{Type: "job"})
	if err := l.flush(); err == nil {
		t.Error("flush swallowed the sink error")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("sink closed") }

package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// benchSpec is BENCHMARK.json: the metric names, units and regression
// bounds the benchmark reports against.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// stamp identifies the conditions a result was measured under.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Workers is the pool size the workload's sweeps ran on: the
	// configured size on untraced runs, the largest pool the run log
	// recorded on traced ones.
	Workers   int    `json:"workers"`
	GoVersion string `json:"go_version"`
	Commit    string `json:"commit"`
	// Source hashes the repository's Go sources, naming the code
	// measured where no commit is recorded (a checkout without git).
	Source string `json:"source_sha256"`
}

func newStamp(w workload, seed int64) stamp {
	return stamp{
		Workload:   w.name,
		Seed:       seed,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Source:     sourceDigest("."),
	}
}

func (s stamp) print(w io.Writer) {
	fmt.Fprintf(w, "# workload=%s seed=%d nproc=%d gomaxprocs=%d workers=%d go=%s commit=%s source=%.16s\n",
		s.Workload, s.Seed, s.NProc, s.GOMAXPROCS, s.Workers, s.GoVersion, s.Commit, s.Source)
}

// commit is the VCS revision the binary was built from, if recorded.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, kv := range info.Settings {
		switch {
		case kv.Key == "vcs.revision":
			rev = kv.Value
		case kv.Key == "vcs.modified" && kv.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}

// sourceDigest hashes every .go file and go.mod under root, skipping
// hidden and build directories, in path order.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// child runs this binary on one workload and returns its final JSON
// line, echoing everything else it printed.
func child(name string, seed int64, seconds float64, trace int, out io.Writer) (map[string]any, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var stdout bytes.Buffer
	cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	text := strings.TrimRight(stdout.String(), "\n")
	last := text[strings.LastIndex(text, "\n")+1:]
	fmt.Fprintln(out, strings.TrimSuffix(text, last))
	var line map[string]any
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s seed %d: %w", name, seed, runErr)
		}
		return nil, fmt.Errorf("%s seed %d: no result line: %w", name, seed, err)
	}
	return line, runErr
}

// runAll runs every workload once, each in its own process.
func runAll(seed int64, seconds float64, trace int) error {
	failed := 0
	for _, w := range workloads {
		fmt.Printf("== %s\n", w.name)
		line, err := child(w.name, seed, seconds, trace, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			failed++
			continue
		}
		data, _ := json.Marshal(line)
		fmt.Println(string(data))
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d workloads failed: %w", failed, len(workloads), errMismatch)
	}
	return nil
}

// steadiness runs a workload k times on successive seeds, each in its
// own process, and prints each metric's median, quartiles and spread
// (the quartile distance over the median) against its bound. A spread
// under a third of the bound is reported steady.
func steadiness(spec *benchSpec, name string, seed int64, seconds float64, trace, k int) error {
	if _, ok := findWorkload(name); !ok {
		return fmt.Errorf("steadiness needs one workload, not %q", name)
	}
	defs := spec.EndToEnd
	if trace == 1 {
		defs = spec.PerLayer
	}
	values := make(map[string][]float64)
	for i := 0; i < k; i++ {
		var out bytes.Buffer
		line, err := child(name, seed+int64(i), seconds, trace, &out)
		if err != nil {
			return err
		}
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(l, "# units=") {
				fmt.Println(l)
			}
		}
		ms, _ := line["metrics"].(map[string]any)
		var shown []string
		for _, d := range defs {
			m, _ := ms[d.Name].(map[string]any)
			v, ok := m["value"].(float64)
			if !ok {
				return fmt.Errorf("run %d: metric %s missing", i, d.Name)
			}
			values[d.Name] = append(values[d.Name], v)
			shown = append(shown, fmt.Sprintf("%s=%.4g", d.Name, v))
		}
		fmt.Printf("# run %d/%d seed %d: %s\n", i+1, k, seed+int64(i), strings.Join(shown, " "))
	}
	fmt.Printf("%-28s %12s %12s %12s %8s %6s  %s\n", "metric", "median", "q1", "q3", "spread", "bound", "verdict")
	for _, d := range defs {
		xs := values[d.Name]
		med := median(xs)
		q1, q3 := quartiles(xs)
		spread := (q3 - q1) / med
		verdict := ""
		if d.Bound > 0 {
			verdict = "steady"
			switch {
			case spread > d.Bound:
				verdict = "UNSTEADY: over bound"
			case spread > d.Bound/3:
				verdict = "marginal: over a third of bound"
			}
		}
		fmt.Printf("%-28s %12.6g %12.6g %12.6g %8.4f %6.2f  %s\n", d.Name, med, q1, q3, spread, d.Bound, verdict)
	}
	return nil
}

package telemetry

import (
	"bufio"
	"encoding/json"
	"sync"
)

// record is one JSONL run-log line. A single struct covers every record
// type; the Type field says which of the optional fields are present.
// The schema is documented in DESIGN.md ("Telemetry" section) and
// pinned by TestRunLogSchema.
type record struct {
	// Type is "sweep_start", "job", "sweep_end" or "summary".
	Type string `json:"type"`

	// Sweep names the sweep the record belongs to (all types but
	// "summary").
	Sweep string `json:"sweep,omitempty"`

	// sweep_start fields.
	Jobs    int `json:"jobs,omitempty"`
	Workers int `json:"workers,omitempty"`

	// job fields: the job index, the worker that ran it, its harness
	// wall-clock latency, the error text for failed jobs, and the
	// goroutine stack for jobs that panicked.
	Job    int     `json:"job,omitempty"`
	Worker int     `json:"worker,omitempty"`
	MS     float64 `json:"ms,omitempty"`
	Err    string  `json:"err,omitempty"`
	Stack  string  `json:"stack,omitempty"`

	// sweep_end fields.
	Done   int `json:"done,omitempty"`
	Errors int `json:"errors,omitempty"`

	// summary fields: the run label, total harness wall time, and the
	// full metric snapshot.
	Label  string    `json:"label,omitempty"`
	WallMS float64   `json:"wall_ms,omitempty"`
	Snap   *Snapshot `json:"metrics,omitempty"`
}

// runLog serializes records as JSON Lines. Writes from concurrent sweep
// workers interleave whole lines, never bytes.
type runLog struct {
	mu  sync.Mutex
	buf *bufio.Writer
	enc *json.Encoder
	err error
}

func newRunLog(w interface{ Write([]byte) (int, error) }) *runLog {
	buf := bufio.NewWriter(w)
	return &runLog{buf: buf, enc: json.NewEncoder(buf)}
}

// record appends one line; the first write error sticks and is reported
// by flush. Nil-safe.
func (l *runLog) record(r record) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return
	}
	l.err = l.enc.Encode(r)
}

// flush drains the buffer and reports the first error seen.
func (l *runLog) flush() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.buf.Flush(); l.err == nil {
		l.err = err
	}
	return l.err
}

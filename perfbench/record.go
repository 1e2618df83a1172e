package main

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
)

// Span names. A span is one timed call into a layer's public
// function, made from this package: nothing inside the program is
// instrumented.
const (
	spanStoreBuild   = "store.build"      // engine.New, or remote.NewCluster + Cluster.Load
	spanStoreWindow  = "store.window"     // Store.Window
	spanStoreCompact = "store.compact"    // Store.Compact
	spanStoreAppend  = "store.append"     // Store.Append
	spanInit         = "core.init"        // core.NewExecution
	spanStep         = "core.step"        // core.Execution.Step
	spanMatch        = "store.match"      // Backend.MatchIndices[Ctx], inside a step
	spanBatch        = "store.matchbatch" // Backend.MatchBatch, inside core.init
	spanReplayFit    = "replay.linalg"    // linalg.FitAffineScratch on a step's matched rows
	spanReplayMatch  = "replay.engine"    // in-process engine match of a remote step's rule
)

// span is one recorded interval. Times are nanoseconds since the
// recorder's base. A replay span lies outside its step's interval but
// names that step as its parent: it re-runs, untimed by the step,
// work the step did inside its own interval.
type span struct {
	Name   string `json:"n"`
	ID     int32  `json:"id"`
	Parent int32  `json:"p"` // -1 for a root span
	Start  int64  `json:"s"`
	End    int64  `json:"e"`
	Rows   int    `json:"r,omitempty"` // matched rows (match spans) or regression rows (replay.linalg)
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. It is safe for
// concurrent use: the timing backend may be called from several
// goroutines at once.
type recorder struct {
	base time.Time

	mu    sync.Mutex
	spans []span
	open  int32 // innermost open span, -1 when none
	// The last single-rule match inside the open span, kept so the
	// traced run can replay the regression (and, over a cluster, the
	// engine match) after the step returns.
	lastRows []int
	lastRule *core.Rule
}

func newRecorder() *recorder { return &recorder{base: time.Now(), open: -1} }

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// begin opens a span as a child of the innermost open span.
func (r *recorder) begin(name string) int32 {
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: r.open, Start: t})
	r.open = id
	r.lastRows, r.lastRule = nil, nil
	return id
}

// end closes the span begin returned.
func (r *recorder) end(id int32) {
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = t
	r.open = r.spans[id].Parent
}

// child records a span from start to now under the innermost open
// span.
func (r *recorder) child(name string, start int64, rows int) {
	end := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, ID: int32(len(r.spans)), Parent: r.open, Start: start, End: end, Rows: rows})
}

// match records a single-rule match from start to now under the
// innermost open span, and remembers the rule and its rows for replay.
func (r *recorder) match(start int64, rule *core.Rule, rows []int) {
	end := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: spanMatch, ID: int32(len(r.spans)), Parent: r.open, Start: start, End: end, Rows: len(rows)})
	r.lastRule, r.lastRows = rule, rows
}

// replay records a span from start to now attributed to step.
func (r *recorder) replay(name string, step int32, start int64, rows int) {
	end := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, ID: int32(len(r.spans)), Parent: step, Start: start, End: end, Rows: rows})
}

// takeMatch returns and forgets the latest single-rule match.
func (r *recorder) takeMatch() (rule *core.Rule, rows []int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rule, rows = r.lastRule, r.lastRows
	r.lastRule, r.lastRows = nil, nil
	return rule, rows
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores the spans as gzipped JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	enc := json.NewEncoder(zw)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

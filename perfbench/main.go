// Command perfbench is the repository's benchmark. It runs one named
// workload through the public forecast facade at a given seed, checks
// the outputs, and prints the metrics: end-to-end ones by default, or,
// with -trace 1, per-layer ones from a separate traced run that times
// calls into core, the store and linalg from outside the program.
//
//	go run . -workload venice-fit -seed 1 -seconds 25 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md describes the
// workloads and metrics; BENCHMARK.json at the repository root lists
// them.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	name  string
	unit  string
	value float64
	n     int // samples behind the value, 0 for a single measurement
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Int("seconds", 25, "how long the untraced run measures")
	trace := flag.Int("trace", 0, "1: run traced and report per-layer metrics")
	spans := flag.String("spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *spans); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func run(name string, seed int64, seconds, trace int, spanDir string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds %d must be at least 1", seconds)
	}
	ctx := context.Background()
	fmt.Printf("perfbench %s seed=%d trace=%d  host: %s\n", w.name, seed, trace, host())
	var (
		ms []metric
		t  tally
	)
	switch trace {
	case 0:
		res, err := runE2E(ctx, w, seed, time.Duration(seconds)*time.Second)
		if err != nil {
			return err
		}
		ms, t = e2eMetrics(w, res), res.tally
	case 1:
		res, err := runTraced(ctx, w, seed)
		if err != nil {
			return err
		}
		path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl.gz", w.name, seed))
		if err := res.rec.write(path); err != nil {
			return err
		}
		fmt.Printf("spans: %s\n", path)
		ms, t = res.metrics(), res.tally
	default:
		return fmt.Errorf("-trace %d must be 0 or 1", trace)
	}
	if t.attempted == 0 {
		return fmt.Errorf("%s: no operation ran", w.name)
	}
	rep := report{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]jsonMetric{}}
	for _, n := range t.notes {
		fmt.Printf("FAILED: %s\n", n)
	}
	fmt.Printf("%-24s %14s  %-8s %s\n", "metric", "value", "unit", "samples")
	for _, m := range ms {
		fmt.Printf("%-24s %14.6g  %-8s %s\n", m.name, m.value, m.unit, samples(m.n))
		if !strings.HasPrefix(m.name, "#") {
			rep.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
		}
	}
	fmt.Printf("%-24s %14.6g  %-8s (%d of %d operations)\n", "error_rate", ratio(float64(t.failed), float64(t.attempted)), "fraction", t.failed, t.attempted)
	out, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func samples(n int) string {
	if n == 0 {
		return ""
	}
	return fmt.Sprint(n)
}

// e2eMetrics are the end-to-end metrics of an untraced run. On the
// streaming workload the repeated training operation is an Append
// plus its refit, so fit_s there is that; the initial Fit is printed
// as "#initial_fit_s". Predict latency is the median over the fitted
// systems of each one's fastest window (see predictTimer). Names
// starting with '#' are printed only: the 99th percentile of Predict
// spreads by up to 30% between runs with the host's load, and the
// validation scores are exact for each evolution seed, so across run
// seeds they spread by what was learned, not by how fast.
func e2eMetrics(w workload, r *e2eResult) []metric {
	fit := r.fit
	if w.stream() {
		fit = r.refit
	}
	ms := []metric{
		{name: "setup_s", unit: "s", value: median(r.setup), n: len(r.setup)},
		{name: "fit_s", unit: "s", value: median(fit), n: len(fit)},
	}
	if w.stream() {
		ms = append(ms,
			metric{name: "#initial_fit_s", unit: "s", value: median(r.fit), n: len(r.fit)},
			metric{name: "#refit_s", unit: "s", value: median(r.refit), n: len(r.refit)})
	}
	return append(ms,
		metric{name: "predict_us_p50", unit: "us", value: median(r.predictP50), n: r.predictCalls},
		metric{name: "#predict_us_p99", unit: "us", value: median(r.predictP99), n: r.predictCalls},
		metric{name: "fit_alloc_mb", unit: "MB", value: median(r.alloc), n: len(r.alloc)},
		metric{name: "peak_rss_mb", unit: "MB", value: r.rssMB},
		metric{name: "#val_nmse", unit: "ratio", value: r.nmse},
		metric{name: "#val_coverage", unit: "fraction", value: r.cov},
	)
}

// host describes the machine the numbers come from.
func host() string {
	cpu := "unknown CPU"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
				break
			}
		}
	}
	return fmt.Sprintf("%s, %s, nproc %d, GOMAXPROCS %d", runtime.Version(), cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0))
}

// Command bench is the repository's wall-clock benchmark. It runs the
// built spinald as a child process and drives it over UDP loopback from
// one socket, speaking the daemon's submit/record grammar and checking
// every delivered record's length and CRC-32, and it runs
// transport.Fetch in-process. A traced run (-trace 1) adds per-layer
// numbers: it replays the same inputs through the core and link layers'
// public functions and observes spinald from outside, and prints layer
// tables that add up to the end-to-end numbers with an explicit
// unaccounted row.
//
// Run it from the repository root through bench/run.sh, which builds
// spinald and this command first:
//
//	bash bench/run.sh --workload daemon-paper --seed 1
//	bash bench/run.sh --seed 1                      # all three workloads
//	bash bench/run.sh --seed 1 --trace 1            # with layer tables
//	bash bench/run.sh --sets 2 --runs 5             # stability check
//
// The last line of standard output is one JSON object with the fields
// correct, attempted, failed and metrics. The exit code is non-zero only
// when a run cannot complete: spinald fails to start, a phase times out,
// or a traced replay does not reproduce spinald's symbol counts.
// Counted failures are reported, not fatal.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"
)

// runBudget bounds one workload run, so every run ends within the three
// minutes a run may take.
const runBudget = 170 * time.Second

type bench struct {
	cfg      *benchConfig
	spinald  string
	spansDir string
	window   time.Duration // how long a run measures
	deadline time.Time
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: all of them)")
		seed         = flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
		seconds      = flag.Int("seconds", 0, "how long a run measures (0 = BENCHMARK.json's run_seconds)")
		traceFlag    = flag.Int("trace", 0, "1 = traced run: print per-layer metrics and layer tables")
		spans        = flag.String("spans", filepath.Join(".bench_build", "spans"), "directory for the traced run's span files")
		spinald      = flag.String("spinald", filepath.Join(".bench_build", "spinald"), "spinald binary")
		configPath   = flag.String("config", "BENCHMARK.json", "benchmark declaration")
		out          = flag.String("out", filepath.Join(".bench_build", "result.json"), "where a run of all workloads writes its JSON result")
		sets         = flag.Int("sets", 0, "stability mode: number of sets of runs to compare")
		runs         = flag.Int("runs", 5, "stability mode: runs per set, run i of every set on seed+i")
	)
	flag.Parse()
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	cfg, err := loadConfig(*configPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *seconds == 0 {
		*seconds = cfg.RunSeconds
	}
	if *seconds < 0 || time.Duration(*seconds)*time.Second > runBudget/3 {
		fmt.Fprintf(os.Stderr, "bench: -seconds must be between 1 and %d\n", int(runBudget/3/time.Second))
		return 2
	}
	if _, err := os.Stat(*spinald); err != nil {
		fmt.Fprintf(os.Stderr, "bench: spinald binary: %v (build it with bench/run.sh)\n", err)
		return 2
	}
	b := &bench{cfg: cfg, spinald: *spinald, spansDir: *spans, window: time.Duration(*seconds) * time.Second}

	var chosen []workload
	if *workloadName == "" || *workloadName == "all" {
		chosen = workloads
	} else {
		w, ok := workloadByName(*workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
			return 2
		}
		chosen = []workload{w}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *sets > 0 {
		return b.stability(ctx, chosen, *seed, *sets, *runs)
	}

	all := map[string]jsonResult{}
	var last jsonResult
	for _, w := range chosen {
		b.deadline = time.Now().Add(runBudget)
		r, err := b.runWorkload(ctx, w, *seed, *traceFlag == 1)
		if err != nil {
			if r != nil {
				b.print(r, false)
			}
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		specs := cfg.EndToEnd
		if *traceFlag == 1 {
			specs = cfg.PerLayer
		}
		j, err := r.toJSON(specs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		b.print(r, *traceFlag == 1)
		all[w.name] = j
		last = j
	}
	if len(chosen) > 1 {
		// Several workloads: the result file holds each; the last line
		// folds them into one object with workload-qualified names.
		last = jsonResult{Correct: true, Metrics: map[string]jsonMetric{}}
		for name, j := range all {
			last.Correct = last.Correct && j.Correct
			last.Attempted += j.Attempted
			last.Failed += j.Failed
			for k, v := range j.Metrics {
				last.Metrics[name+"/"+k] = v
			}
		}
		if err := writeJSON(*out, map[string]any{"seed": *seed, "trace": *traceFlag, "workloads": all}); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Printf("result written to %s\n", *out)
	}
	line, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// runWorkload runs one workload. Untraced, the result holds the
// end-to-end metrics. Traced, it first runs the workload untraced (the
// end-to-end numbers the layer tables add up to), then the traced pass
// and the replays; the result holds the per-layer metrics, every
// declared one, with 0 for a layer the workload does not cross.
func (b *bench) runWorkload(ctx context.Context, w workload, seed int64, traced bool) (*result, error) {
	base, err := b.untraced(ctx, w, seed)
	if err != nil || !traced {
		return base, err
	}
	tr := newTracer()
	var r *result
	if w.isFetch() {
		r, err = b.traceFetch(ctx, w, seed, base.metrics, tr)
	} else {
		r, err = b.traceDaemon(ctx, w, seed, base.metrics, tr)
	}
	if err != nil {
		return r, err
	}
	for _, s := range b.cfg.PerLayer {
		if _, ok := r.metrics[s.Name]; !ok {
			r.metrics[s.Name] = value{note: "n/a: not on this workload's path"}
		}
	}
	for k, v := range base.metrics {
		r.metrics[k] = v
	}
	r.correct = r.correct && base.correct
	r.report = append(r.report, "span self time:")
	for _, st := range tr.selfTimes() {
		r.report = append(r.report, "  "+st.String())
	}
	path, err := tr.write(b.spansDir, w.name)
	if err != nil {
		return r, fmt.Errorf("write spans: %w", err)
	}
	r.report = append(r.report, fmt.Sprintf("spans written to %s (%d spans)", path, len(tr.spans)))
	return r, nil
}

// untraced runs one workload with tracing off and returns its end-to-end
// metrics.
func (b *bench) untraced(ctx context.Context, w workload, seed int64) (*result, error) {
	r := &result{workload: w.name}
	if w.isFetch() {
		f, err := b.runFetch(ctx, w, seed, nil)
		if err != nil {
			return nil, err
		}
		r.metrics, r.attempted, r.failed = f.endToEnd(w)
		r.correct = f.corrupt == 0
		return r, nil
	}
	d, err := b.runDaemon(ctx, w, seed, nil)
	if err != nil {
		return nil, err
	}
	r.metrics, r.attempted, r.failed = d.endToEnd()
	r.correct = true
	r.report = append(r.report, d.notes()...)
	if !d.clean {
		r.report = append(r.report, "note: spinald did not report a clean drain")
	}
	return r, nil
}

// print writes a result's metrics (the end-to-end ones, then the
// per-layer ones of a traced run) and its report.
func (b *bench) print(r *result, traced bool) {
	fmt.Printf("== %s ==\n", r.workload)
	show := func(s metricSpec) {
		v, ok := r.metrics[s.Name]
		if !ok {
			return
		}
		n := ""
		if v.n > 0 {
			n = fmt.Sprintf("n=%d", v.n)
		}
		fmt.Printf("  %-32s %14.4f %-7s %-9s %s\n", s.Name, v.v, s.Unit, n, v.note)
	}
	for _, s := range b.cfg.EndToEnd {
		show(s)
	}
	if traced {
		fmt.Println("  per layer:")
		for _, s := range b.cfg.PerLayer {
			show(s)
		}
	}
	fmt.Printf("  attempted %d, failed %d, correct %v\n", r.attempted, r.failed, r.correct)
	for _, line := range r.report {
		fmt.Println("  " + line)
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// stability runs sets of untraced runs alternately, run i of every set
// on seed+i, and compares each set's median with the first set's: PASS
// when neither is worse than the other by more than the metric's
// BENCHMARK.json bound. For the metrics a seed fixes it also says
// whether the sets read identically. It returns non-zero if any
// comparison fails.
func (b *bench) stability(ctx context.Context, ws []workload, seed int64, sets, runs int) int {
	// vals[workload][metric][set] holds one value per run.
	vals := map[string]map[string][][]float64{}
	for i := 0; i < runs; i++ {
		for s := 0; s < sets; s++ {
			for _, w := range ws {
				b.deadline = time.Now().Add(runBudget)
				r, err := b.untraced(ctx, w, seed+int64(i))
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s run %d set %d: %v\n", w.name, i, s, err)
					return 1
				}
				fmt.Printf("run %d set %d %s: correct=%v failed=%d\n", i, s, w.name, r.correct, r.failed)
				if vals[w.name] == nil {
					vals[w.name] = map[string][][]float64{}
				}
				for _, spec := range b.cfg.EndToEnd {
					if vals[w.name][spec.Name] == nil {
						vals[w.name][spec.Name] = make([][]float64, sets)
					}
					vals[w.name][spec.Name][s] = append(vals[w.name][spec.Name][s], r.metrics[spec.Name].v)
				}
			}
		}
	}
	fail := false
	for _, w := range ws {
		fmt.Printf("== %s: %d sets × %d runs ==\n", w.name, sets, runs)
		for _, spec := range b.cfg.EndToEnd {
			v := vals[w.name][spec.Name]
			_, m0, _ := quartiles(v[0])
			var parts []string
			verdict := "PASS"
			for s := range v {
				q1, m, q3 := quartiles(v[s])
				parts = append(parts, fmt.Sprintf("set%d %.4g [%.4g, %.4g] spread %.1f%%", s, m, q1, q3, 100*spread(v[s])))
				if s > 0 && (regressed(spec.Better, spec.Bound, m0, m) || regressed(spec.Better, spec.Bound, m, m0)) {
					verdict = "FAIL"
				}
			}
			if verdict != "PASS" {
				fail = true
			}
			if spec.Name == "bits_per_symbol" || spec.Name == "delivered_ratio" {
				if slices.EqualFunc(v[1:], v[:len(v)-1], slices.Equal) {
					verdict += ", identical"
				} else {
					verdict += ", not identical"
				}
			}
			fmt.Printf("  %-16s bound %5.1f%%  %s  %s\n", spec.Name, 100*spec.Bound, strings.Join(parts, "  "), verdict)
		}
	}
	if fail {
		return 1
	}
	return 0
}

// Command e2ebench is the repository's end-to-end benchmark. It drives
// the real daemons (simrank, simrankd, simrank-gateway and
// simrank-ingestd, built from this tree) on loopback through one of
// three workloads generated from a seed:
//
//	serve  reads only: a gateway in front of two replicas
//	fresh  click batches into simrank-ingestd beside closed-loop reads
//	build  simrank -sharded -save, then simrank -refresh on the next day
//
// With -trace 1 it runs the workload a second time in-process, composed
// from the same public functions, with spans recorded around each call
// into a layer, and reports per-layer metrics plus the tracing overhead.
//
// Run it through run.sh, which builds everything first:
//
//	bash e2ebench/run.sh --workload serve --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A failed correctness check
// exits 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// setupReps is how many times a run sets its daemons up; setup_s is the
// median.
const setupReps = 25

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// phase counts one phase's operations.
type phase struct {
	Name      string `json:"name"`
	Attempted int    `json:"attempted"`
	Succeeded int    `json:"succeeded"`
	Failed    int    `json:"failed"`
}

// report collects one run's results.
type report struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Seconds  int               `json:"seconds"`
	Trace    bool              `json:"trace"`
	Env      map[string]any    `json:"environment"`
	Metrics  map[string]metric `json:"metrics"`   // the workload's named end-to-end metrics
	Gate     map[string]metric `json:"gate"`      // the metrics of the last line
	Layers   map[string]metric `json:"per_layer"` // traced runs only
	Phases   []phase           `json:"phases"`
	Checks   []string          `json:"checks"`
	Failures []string          `json:"check_failures"`
	Notes    []string          `json:"notes,omitempty"`
}

func (r *report) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{v, unit}
}

// setDist reports a timing's median and tail under name_p50_unit and
// name_pNN_unit, with the sample count in a note.
func (r *report) setDist(name string, d dist, unit string) {
	r.set(name+"_p50_"+unit, d.P50, unit)
	if d.TailPct > 0 {
		r.set(fmt.Sprintf("%s_p%s_%s", name, pctName(d.TailPct), unit), d.Tail, unit)
	}
	r.Notes = append(r.Notes, fmt.Sprintf("%s: n=%d", name, d.N))
}

// pctName spells a percentile for a metric name: 99.9 is "999".
func pctName(p float64) string {
	return strings.ReplaceAll(strconv.FormatFloat(p, 'f', -1, 64), ".", "")
}

// gateMs sets gate metric name to d's median times scale, in ms. A gate
// with no samples behind it fails the run rather than reading 0.
func (r *report) gateMs(name string, d dist, scale float64) {
	r.check(name+": measured over successful samples", d.N > 0, "no successful samples")
	r.Gate[name] = metric{d.P50 * scale, "ms"}
}

func (r *report) addPhase(p phase) { r.Phases = append(r.Phases, p) }

// check records a correctness check's outcome.
func (r *report) check(name string, ok bool, detail string) {
	if ok {
		r.Checks = append(r.Checks, name)
		return
	}
	r.Failures = append(r.Failures, name+": "+detail)
}

// config is the run's command line.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	bin      string // directory holding the built programs
	work     string // scratch directory for this run
	out      string // directory for the run record and spans
	procs    int    // GOMAXPROCS given to every spawned program
}

func (c *config) program(name string) string { return filepath.Join(c.bin, name) }

func main() {
	var (
		workload = flag.String("workload", "", "serve | fresh | build")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 10, "measured seconds")
		trace    = flag.Int("trace", 0, "1: add the traced in-process run and report per-layer metrics")
		bin      = flag.String("bin", "", "directory holding simrank, simrankd, simrank-gateway and simrank-ingestd")
		work     = flag.String("work", "", "scratch directory (removed afterwards)")
		out      = flag.String("out", "", "directory for the full run record and trace spans")
	)
	flag.Parse()
	if *bin == "" || *work == "" || *out == "" || *seconds < 1 {
		fail(fmt.Errorf("-bin, -work, -out and a positive -seconds are required (use run.sh)"))
	}
	cfg := &config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		bin: *bin, out: *out, procs: runtime.NumCPU()}
	cfg.work = filepath.Join(*work, fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid()))
	// Interrupted: stop the programs this run started before exiting.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		stopAll()
		os.RemoveAll(cfg.work)
		os.Exit(2)
	}()
	code, err := run(cfg)
	if err != nil {
		fail(err)
	}
	os.Exit(code)
}

// run executes one workload and returns the exit code.
func run(cfg *config) (int, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return 0, fmt.Errorf("unknown -workload %q (serve, fresh, build)", cfg.workload)
	}
	for _, p := range []string{"simrank", "simrankd", "simrank-gateway", "simrank-ingestd"} {
		if _, err := os.Stat(cfg.program(p)); err != nil {
			return 0, fmt.Errorf("program not built: %w", err)
		}
	}
	for _, dir := range []string{cfg.work, cfg.out} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return 0, err
		}
	}
	defer os.RemoveAll(cfg.work)

	rep := &report{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Metrics: map[string]metric{}, Gate: map[string]metric{}, Layers: map[string]metric{}}
	in, err := generate(cfg.seed, cfg.work, cfg.seconds)
	if err != nil {
		return 0, fmt.Errorf("generating inputs: %w", err)
	}
	rep.Env = environment(cfg, in)
	ctx := context.Background()
	if err := w.e2e(ctx, cfg, in, rep); err != nil {
		return 0, err
	}
	if cfg.trace {
		if err := w.traced(ctx, cfg, in, rep); err != nil {
			return 0, err
		}
	}
	return emit(cfg, rep), nil
}

// benchWorkload is one benchmark workload: its end-to-end run over the
// real daemons and its traced in-process run.
type benchWorkload struct {
	e2e    func(context.Context, *config, *inputs, *report) error
	traced func(context.Context, *config, *inputs, *report) error
}

var workloads = map[string]benchWorkload{
	"serve": {runServe, traceServe},
	"fresh": {runFresh, traceFresh},
	"build": {runBuild, traceBuild},
}

func environment(cfg *config, in *inputs) map[string]any {
	return map[string]any{
		"nproc":             runtime.NumCPU(),
		"go_version":        runtime.Version(),
		"goos_goarch":       runtime.GOOS + "/" + runtime.GOARCH,
		"bench_gomaxprocs":  runtime.GOMAXPROCS(0),
		"daemon_gomaxprocs": cfg.procs,
		"inputs":            in.sizes(),
		"processes":         []map[string]any{},
	}
}

// input adds an input size to the environment record.
func (r *report) input(key string, v any) {
	r.Env["inputs"].(map[string]any)[key] = v
}

// recordProcess adds a spawned program and its flags to the record.
func (r *report) recordProcess(d *daemon, gomaxprocs int) {
	r.Env["processes"] = append(r.Env["processes"].([]map[string]any),
		map[string]any{"name": d.name, "flags": d.args, "gomaxprocs": gomaxprocs})
}

// emit prints the report and the last line, writes the full record, and
// returns the exit code.
func emit(cfg *config, rep *report) int {
	out := os.Stdout
	fmt.Fprintf(out, "workload %s  seed %d  seconds %d  trace %v\n", rep.Workload, rep.Seed, rep.Seconds, rep.Trace)
	env, _ := json.Marshal(rep.Env) // plain maps, slices and numbers
	fmt.Fprintf(out, "environment %s\n", env)
	for _, name := range sortedKeys(rep.Metrics) {
		m := rep.Metrics[name]
		fmt.Fprintf(out, "  %-28s %14.4f %s\n", name, m.Value, m.Unit)
	}
	for _, n := range rep.Notes {
		fmt.Fprintf(out, "  note: %s\n", n)
	}
	attempted, failed := 0, 0
	for _, p := range rep.Phases {
		fmt.Fprintf(out, "  phase %-22s attempted %7d  succeeded %7d  failed %5d\n", p.Name, p.Attempted, p.Succeeded, p.Failed)
		attempted += p.Attempted
		failed += p.Failed
	}
	for _, c := range rep.Checks {
		fmt.Fprintf(out, "  check ok: %s\n", c)
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(out, "  CHECK FAILED: %s\n", f)
	}
	if cfg.trace {
		for _, name := range sortedKeys(rep.Layers) {
			m := rep.Layers[name]
			fmt.Fprintf(out, "  layer %-34s %14.4f %s\n", name, m.Value, m.Unit)
		}
	}
	if b, err := json.MarshalIndent(rep, "", "  "); err == nil {
		path := filepath.Join(cfg.out, fmt.Sprintf("%s-%d-trace%v.json", rep.Workload, rep.Seed, rep.Trace))
		if err := os.WriteFile(path, b, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench: run record not written:", err) // stdout has it all
		}
	}
	metrics := rep.Gate
	if cfg.trace {
		metrics = rep.Layers
	}
	correct := len(rep.Failures) == 0
	if attempted < 1 {
		attempted = 1
	}
	last, err := json.Marshal(map[string]any{"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(out, string(last))
	if !correct {
		return 1
	}
	return 0
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	os.Exit(2)
}

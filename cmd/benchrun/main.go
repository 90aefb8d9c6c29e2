// Command benchrun is the repository's benchmark. It times the sharded
// simulation kernel as a batch job — seed, overlay, engine, windows,
// verified Result — on four fixed workloads, and attributes the time to
// the layers underneath from a traced pass and a ladder of isolated calls.
//
// One workload per process:
//
//	benchrun --workload NAME [--seed S] [--seconds N] [--trace 0|1] [--trace-file FILE]
//
// runs an untimed warm-up repetition and checks it against a 1-lane run
// over the same overlay, then repeats the workload for N seconds (and at
// least a few times) at 2 lanes, and prints one line per metric with its
// median, quartiles and sample count.
// The last line of standard output is a JSON object with the verification
// counts and the end-to-end metrics, or with --trace 1 the per-layer
// metrics; the spans of the traced repetitions go to --trace-file. Without
// --workload every workload runs in turn, each in a child process. The
// exit status is non-zero when any verification fails.
//
// cmd/benchrun/bench.sh builds the command offline and runs it; see
// cmd/benchrun/README.md for the workloads and metrics.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

const (
	defaultSeed = 7
	// lanes is the measured lane count: the two cores the benchmark was
	// sized on. The 1-lane runs are the single-threaded baseline.
	lanes = 2
)

// goldenJSON pins each workload's Result fingerprint at the default seed.
//
//go:embed golden.json
var goldenJSON []byte

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run; empty runs every workload, each in a child process")
	seed := fs.Int64("seed", defaultSeed, "overlay seed; the engine is seeded with seed+1")
	seconds := fs.Int("seconds", 20, "measurement time per workload; every workload makes at least a few repetitions")
	trace := fs.Int("trace", 0, "1 adds traced repetitions and the layer ladder and reports per-layer metrics")
	traceFile := fs.String("trace-file", "", "span output (JSON lines) under --trace 1; default .bench_build/trace-WORKLOAD.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchrun: want --seconds >= 0, --trace 0 or 1, and no positional arguments")
		return 2
	}
	if *workload == "" {
		return runAll(args, stdout, stderr)
	}
	sp := findSpec(*workload)
	if sp == nil {
		fmt.Fprintf(stderr, "benchrun: unknown workload %q\n", *workload)
		return 2
	}
	golden, err := goldenFor(sp.name, *seed)
	if err != nil {
		fmt.Fprintf(stderr, "benchrun: %v\n", err)
		return 1
	}
	opt := options{seed: *seed, budget: time.Duration(*seconds) * time.Second, golden: golden, ladder: fullLadder}
	if *trace == 1 {
		opt.traceFile = *traceFile
		if opt.traceFile == "" {
			opt.traceFile = filepath.Join(".bench_build", "trace-"+sp.name+".jsonl")
		}
	}
	runtime.GOMAXPROCS(lanes)
	return runWorkload(sp, opt, stdout, stderr)
}

// options are one workload run's settings.
type options struct {
	seed      int64
	budget    time.Duration
	golden    uint64
	traceFile string // non-empty enables the traced pass
	ladder    ladderConfig
}

// runWorkload measures sp, prints the metric table and the result line,
// and returns the exit status.
func runWorkload(sp *spec, opt options, stdout, stderr io.Writer) int {
	fmt.Fprintf(stdout, "# benchrun workload=%s seed=%d lanes=%d gomaxprocs=%d nproc=%d cpu=%q go=%s\n",
		sp.name, opt.seed, lanes, runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), runtime.Version())
	v := &verifier{out: stderr}
	traced := opt.traceFile != ""
	m, err := measure(sp, opt.seed, opt.budget, traced, opt.golden, v)
	if err != nil {
		fmt.Fprintf(stderr, "benchrun: %v\n", err)
		return 1
	}
	e2e := endToEnd(m)
	report := e2e
	if traced {
		ladder, err := runLadder(opt.ladder, opt.seed)
		if err != nil {
			fmt.Fprintf(stderr, "benchrun: %v\n", err)
			return 1
		}
		if err := writeTrace(opt.traceFile, m.traced); err != nil {
			fmt.Fprintf(stderr, "benchrun: trace: %v\n", err)
			return 1
		}
		report = perLayer(m, ladder)
		writeTable(stdout, sp.name, e2e)
	}
	writeTable(stdout, sp.name, report)
	fmt.Fprintf(stdout, "# fingerprint=%016x verifications attempted=%d failed=%d\n", m.fp, v.attempted, v.failed)
	if err := writeResult(stdout, v, report); err != nil {
		fmt.Fprintf(stderr, "benchrun: %v\n", err)
		return 1
	}
	if v.failed > 0 {
		return 1
	}
	return 0
}

func writeTrace(path string, reps []*rep) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for _, r := range reps {
		if err := r.trace.write(f); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// runAll runs every workload in a child process of this binary, one at a
// time, with the same flags.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchrun: %v\n", err)
		return 1
	}
	status := 0
	for _, sp := range workloads {
		// The workload flag goes last so that it overrides any in args.
		cmd := exec.Command(self, append(slices.Clone(args), "--workload", sp.name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "benchrun: %s: %v\n", sp.name, err)
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				return 1
			}
			status = 1
		}
	}
	return status
}

// goldenFor returns the pinned fingerprint of workload at seed, or 0 when
// seed is not the default one.
func goldenFor(workload string, seed int64) (uint64, error) {
	if seed != defaultSeed {
		return 0, nil
	}
	var pins map[string]string
	if err := json.Unmarshal(goldenJSON, &pins); err != nil {
		return 0, fmt.Errorf("golden.json: %w", err)
	}
	hex, ok := pins[workload]
	if !ok {
		return 0, fmt.Errorf("golden.json pins no fingerprint for %s", workload)
	}
	fp, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("golden.json: %s: %w", workload, err)
	}
	return fp, nil
}

// cpuModel is the first "model name" in /proc/cpuinfo, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// Command experiments regenerates the paper's tables and figures and runs
// the declarative scenario presets.
//
// Usage:
//
//	experiments -list
//	experiments -id fig7 [-preset full]
//	experiments -all [-preset quick]
//	experiments -id fig7 -preset large -cpuprofile cpu.pprof
//	experiments -scenarios
//	experiments -scenario flash-crowd [-preset large]
//	experiments -scenario flash-crowd -preset large -shards 8
//	experiments -scenario flash-crowd -preset large -shards 8 -timing
//	experiments -scenario flash-crowd -shards 4 -checkpoint-every 50000 -checkpoint run.snap
//	experiments -scenario flash-crowd -shards 4 -restore run.snap
//	experiments -scenario free-rider-mix -shards 8 -routing availability
//	experiments -scenario free-rider-mix -shards 8 -routing degree -checkpoint-every 50000 -checkpoint run.snap
//	experiments -id policy-sweep
//	experiments -taxrates 0.05,0.1,0.2 [-preset full]
//
// Quick (default) runs scaled-down configurations in seconds; full runs
// paper-scale parameters (N up to 1000 peers, 40 000 simulated seconds) and
// can take minutes per figure; large runs 100k-peer populations on the
// scale engine.
// Scenarios (flash-crowd, free-rider-mix, diurnal-churn, seeder-drain, ...)
// compile a declared regime into a simulator configuration at the chosen
// preset scale and print a summary report.
//
// -cpuprofile and -memprofile write pprof profiles covering the experiment
// runs, so performance PRs can attach before/after evidence gathered
// through the exact cmd path users run.
//
// -checkpoint-every N checkpoints a sharded -scenario run (-shards > 1)
// every N events to the -checkpoint path; -restore resumes a crashed run
// from the checkpoint stored at its path and produces byte-identical
// output to the uninterrupted run. Every checkpoint is a base, a complete
// snapshot that replaces the previous one, and it lands at the first
// window barrier at or after each multiple of N total fired events, with
// its seal and file I/O overlapped with the following windows, so a
// resumed run checkpoints where the uninterrupted run would have. Every
// base is written write-to-temp / fsync / rename / fsync-directory, so a
// crash or power cut mid-checkpoint always leaves a complete base behind.
// -restore reads only the file at its path: PATH.dNNN delta files an older
// build left beside it are ignored and can be deleted. The single-threaded
// engines (-shards 1) do not checkpoint; their runs take seconds.
// Standard error names every base by its capture id (the link header's
// ID) as "checkpoint ID: writing" before the file is replaced and
// "checkpoint ID: committed" once it is durable, and -restore prints
// "restore ID: loaded" for the base it resumes from, so a crash drill can
// tell which base a restore picked up.
//
// -timing prints the sharded kernel's phase-level barrier-pipeline
// breakdown (dispatch / merge / apply / churn / publish) after the report,
// then the dispatch phases' CPU time, CPU/wall ratio and CPU ns per event,
// and the merge and apply phases' CPU time and CPU ns per merged event.
//
// -routing (sharded runs only) overrides the preset's destination-sampling
// mode: uniform picks neighbors uniformly, degree weights by static
// degree, availability weights by a churn-tracking EWMA of uptime. All
// three compose with -shards, -checkpoint-every and -restore, and each
// mode's output is byte-identical for every shard count.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"creditp2p"
	"creditp2p/internal/market"
	"creditp2p/internal/scenario"
	"creditp2p/internal/snapshot"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	list := fs.Bool("list", false, "list available experiments")
	id := fs.String("id", "", "experiment id to run (fig1..fig11, exact-vs-approx, threshold, pricing)")
	all := fs.Bool("all", false, "run every experiment")
	scenarios := fs.Bool("scenarios", false, "list available scenario presets")
	scenarioName := fs.String("scenario", "", "scenario preset to run (see -scenarios)")
	taxRates := fs.String("taxrates", "", "comma-separated tax-rate grid for the policy-sweep experiment (e.g. 0.05,0.1,0.2)")
	presetName := fs.String("preset", "quick", "quick, full, large or xlarge")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile to this file after the run")
	checkpointEvery := fs.Int("checkpoint-every", 0, "with -scenario -shards > 1: checkpoint the run every N events to the -checkpoint path")
	checkpointPath := fs.String("checkpoint", "checkpoint.snap", "with -scenario: the file -checkpoint-every writes; each checkpoint is a complete base replacing the last")
	restorePath := fs.String("restore", "", "with -scenario -shards > 1: resume from the checkpoint stored at this path instead of starting fresh")
	shards := fs.Int("shards", 1, "with -scenario: run on the sharded multi-core kernel with this many lanes (1 = the classic single-threaded engines, which neither checkpoint nor restore)")
	timing := fs.Bool("timing", false, "with -scenario -shards > 1: print the phase-level barrier-pipeline timing breakdown after the report")
	routing := fs.String("routing", "", "with -scenario -shards > 1: override the preset's destination-sampling mode (uniform, degree or availability)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	preset, err := scenario.ParseScale(*presetName)
	if err != nil {
		return err
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		defer func() {
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: memprofile:", err)
			}
			f.Close()
		}()
	}

	switch {
	case *list:
		for _, e := range creditp2p.Experiments() {
			fmt.Printf("%-16s %s\n", e.ID, e.Title)
		}
		return nil
	case *scenarios:
		for _, sc := range creditp2p.Scenarios() {
			fmt.Printf("%-16s %s\n", sc.Name, sc.Summary)
		}
		return nil
	case *taxRates != "":
		rates, err := parseRates(*taxRates)
		if err != nil {
			return err
		}
		return creditp2p.RunPolicySweep(rates, preset, os.Stdout)
	case *scenarioName != "":
		if *shards < 1 {
			return fmt.Errorf("-shards %d: want a positive lane count", *shards)
		}
		if *timing && *shards <= 1 {
			return fmt.Errorf("-timing needs -shards > 1 (the single-threaded engines have no barrier pipeline)")
		}
		if *routing != "" && *shards <= 1 {
			return fmt.Errorf("-routing needs -shards > 1 (the single-threaded engines take routing from the preset)")
		}
		if (*checkpointEvery > 0 || *restorePath != "") && *shards <= 1 {
			return fmt.Errorf("-checkpoint-every and -restore need -shards > 1 (only the sharded kernel checkpoints)")
		}
		return runScenario(*scenarioName, preset, *shards,
			*checkpointEvery, *checkpointPath, *restorePath, *timing, *routing)
	case *all:
		return creditp2p.RunAllExperiments(preset, os.Stdout)
	case *id != "":
		return creditp2p.RunExperiment(*id, preset, os.Stdout)
	default:
		fs.Usage()
		return fmt.Errorf("nothing to do: pass -list, -id, -all, -scenarios, -scenario or -taxrates")
	}
}

// runScenario runs a scenario on the single-threaded engines (shards 1)
// or the sharded multi-core kernel, optionally with checkpoint/restore and
// the phase-timing breakdown. A sharded report gains "shards" and
// "routing" rows; its results are byte-identical across shard counts by
// the sharded kernel's invariance contract.
func runScenario(name string, scale scenario.Scale, shards, every int, ckPath, restorePath string, timing bool, routing string) error {
	sc, err := scenario.Get(name)
	if err != nil {
		return err
	}
	switch routing {
	case "":
	case "uniform":
		sc.Market.Routing = market.RouteUniform
	case "degree":
		sc.Market.Routing = market.RouteDegreeWeighted
	case "availability":
		sc.Market.Routing = market.RouteAvailability
	default:
		return fmt.Errorf("unknown -routing %q (want uniform, degree or availability)", routing)
	}
	rs, err := resumeChainSpec(every, ckPath, restorePath)
	if err != nil {
		return err
	}
	out, err := scenario.Run(sc, scale, shards, rs)
	if err != nil {
		return err
	}
	if err := out.Report(os.Stdout); err != nil {
		return err
	}
	if timing && out.Timings != nil {
		if _, err := fmt.Fprintln(os.Stdout); err != nil {
			return err
		}
		return out.Timings.Write(os.Stdout)
	}
	return nil
}

// resumeChainSpec assembles a run's Resume wiring: a ChainStore sink at
// ckPath for the cadence, and the stored base (validated) when resuming.
func resumeChainSpec(every int, ckPath, restorePath string) (scenario.Resume, error) {
	var rs scenario.Resume
	if every > 0 {
		rs.CheckpointEvery = every
		rs.ChainSink = &loggedStore{snapshot.ChainStore{Path: ckPath}}
	}
	if restorePath != "" {
		st := snapshot.ChainStore{Path: restorePath}
		chain, err := st.Load()
		if err != nil {
			return rs, fmt.Errorf("restore: %w", err)
		}
		id, err := baseID(chain[0])
		if err != nil {
			return rs, fmt.Errorf("restore: %w", err)
		}
		fmt.Fprintf(os.Stderr, "restore %016x: loaded\n", id)
		rs.Chain = chain
	}
	return rs, nil
}

// loggedStore is a ChainStore that reports on standard error each base's
// capture id before the write replaces the stored file and again once the
// write is durable. A process killed between the two lines may have
// committed that base or kept the previous one.
type loggedStore struct{ snapshot.ChainStore }

// WriteBase persists data as the new base, logging around the commit.
func (st *loggedStore) WriteBase(data []byte) error {
	id, err := baseID(data)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "checkpoint %016x: writing\n", id)
	if err := st.ChainStore.WriteBase(data); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "checkpoint %016x: committed\n", id)
	return nil
}

// baseID returns the capture id in a sealed base's link header.
func baseID(base []byte) (uint64, error) {
	r, err := snapshot.Open(base)
	if err != nil {
		return 0, err
	}
	h := r.LinkHeader()
	return h.ID, r.Err()
}

// parseRates parses the -taxrates grid.
func parseRates(s string) ([]float64, error) {
	var rates []float64
	for _, part := range strings.Split(s, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("taxrates: %w", err)
		}
		rates = append(rates, r)
	}
	return rates, nil
}

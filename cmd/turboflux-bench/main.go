// Command turboflux-bench regenerates the paper's tables and figures
// (DESIGN.md §5 maps experiment ids to paper artifacts).
//
// Usage:
//
//	turboflux-bench -exp fig6 [-users 1500] [-queries 8] [-timeout 5s]
//	turboflux-bench -exp all
//	turboflux-bench -list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"turboflux/internal/harness"
)

func main() {
	cfg := harness.DefaultConfig(os.Stdout)
	exp := flag.String("exp", "", "experiment id (see -list)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	durOut := flag.String("durability-out", "BENCH_durability.json", "report path for -exp durability")
	durRecords := flag.Int("durability-records", 200000, "WAL record count for -exp durability")
	fanoutOut := flag.String("fanout-out", "BENCH_fanout.json", "report path for -exp fanout")
	fanoutUpdates := flag.Int("fanout-updates", 100000, "updates per grid cell for -exp fanout")
	replicaOut := flag.String("replica-out", "BENCH_replica.json", "report path for -exp replica")
	replicaSamples := flag.Int("replica-samples", 500, "delivery samples per grid cell for -exp replica")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the experiment to this path")
	flag.IntVar(&cfg.Users, "users", cfg.Users, "LSBench scale factor (#users)")
	flag.IntVar(&cfg.Hosts, "hosts", cfg.Hosts, "Netflow host count")
	flag.IntVar(&cfg.Triples, "triples", cfg.Triples, "Netflow triple count")
	flag.IntVar(&cfg.QueriesPerSet, "queries", cfg.QueriesPerSet, "queries per set (paper: 100)")
	flag.DurationVar(&cfg.Timeout, "timeout", cfg.Timeout, "per-query timeout (paper: 2h)")
	flag.Int64Var(&cfg.SizeCap, "sizecap", cfg.SizeCap, "per-query intermediate-size cap (bytes)")
	flag.Int64Var(&cfg.WorkBudget, "work", cfg.WorkBudget, "per-update cap inside engines: reported matches for TurboFlux, search steps for the baselines")
	flag.Int64Var(&cfg.Seed, "seed", cfg.Seed, "generator seed")
	flag.BoolVar(&cfg.Scatter, "scatter", false, "print per-query scatter rows (fig6/fig7)")
	csvDir := flag.String("csv", "", "also write per-experiment CSV files into this directory")
	flag.Parse()
	if *csvDir != "" {
		cfg.CSV = harness.NewCSVSink(*csvDir)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "turboflux-bench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "turboflux-bench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	if *list {
		fmt.Println(strings.Join(harness.Experiments(), "\n"))
		fmt.Println("durability")
		fmt.Println("fanout")
		fmt.Println("replica")
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "turboflux-bench: -exp is required (try -list)")
		os.Exit(2)
	}
	if *exp == "durability" {
		start := time.Now()
		if err := runDurability(*durOut, *durRecords); err != nil {
			fmt.Fprintln(os.Stderr, "turboflux-bench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stdout, "\n[durability completed in %s]\n", time.Since(start).Round(time.Millisecond))
		return
	}
	if *exp == "fanout" {
		start := time.Now()
		if err := runFanout(*fanoutOut, *fanoutUpdates); err != nil {
			fmt.Fprintln(os.Stderr, "turboflux-bench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stdout, "\n[fanout completed in %s]\n", time.Since(start).Round(time.Millisecond))
		return
	}
	if *exp == "replica" {
		start := time.Now()
		if err := runReplica(*replicaOut, *replicaSamples); err != nil {
			fmt.Fprintln(os.Stderr, "turboflux-bench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stdout, "\n[replica completed in %s]\n", time.Since(start).Round(time.Millisecond))
		return
	}
	start := time.Now()
	if err := harness.Run(*exp, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "turboflux-bench:", err)
		os.Exit(1)
	}
	if cfg.CSV != nil {
		if err := cfg.CSV.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, "turboflux-bench: writing csv:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stdout, "[csv written to %s]\n", *csvDir)
	}
	fmt.Fprintf(os.Stdout, "\n[%s completed in %s]\n", *exp, time.Since(start).Round(time.Millisecond))
}

// writeJSON writes an experiment's report document to path.
func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("[report written to %s]\n", path)
	return nil
}

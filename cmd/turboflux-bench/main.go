// Command turboflux-bench regenerates the paper's tables and figures
// (DESIGN.md §5 maps experiment ids to paper artifacts).
//
// Usage:
//
//	turboflux-bench -exp fig6 [-users 1500] [-queries 8] [-timeout 5s]
//	turboflux-bench -exp all
//	turboflux-bench -list
//
// With -cpuprofile the command writes a CPU profile of its whole run, also
// when the experiment fails.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"turboflux/internal/harness"
)

// errNoExp is run's error for a missing -exp; the command exits 2 on it.
var errNoExp = errors.New("-exp is required (try -list)")

func main() {
	cfg := harness.DefaultConfig(os.Stdout)
	exp := flag.String("exp", "", "experiment id (see -list)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the experiment to this path")
	flag.IntVar(&cfg.Users, "users", cfg.Users, "LSBench scale factor (#users)")
	flag.IntVar(&cfg.Hosts, "hosts", cfg.Hosts, "Netflow host count")
	flag.IntVar(&cfg.Triples, "triples", cfg.Triples, "Netflow triple count")
	flag.IntVar(&cfg.QueriesPerSet, "queries", cfg.QueriesPerSet, "queries per set (paper: 100)")
	flag.DurationVar(&cfg.Timeout, "timeout", cfg.Timeout, "per-query timeout (paper: 2h)")
	flag.Int64Var(&cfg.SizeCap, "sizecap", cfg.SizeCap, "per-query cap on an engine's intermediate results (bytes, as each engine accounts them)")
	flag.Int64Var(&cfg.WorkBudget, "work", cfg.WorkBudget, "per-update cap on the matches every engine reports")
	flag.Int64Var(&cfg.Seed, "seed", cfg.Seed, "generator seed")
	flag.BoolVar(&cfg.Scatter, "scatter", false, "print per-query scatter rows (fig6/fig7)")
	csvDir := flag.String("csv", "", "also write per-experiment CSV files into this directory")
	flag.Parse()

	if err := run(cfg, *exp, *list, *cpuProfile, *csvDir); err != nil {
		fmt.Fprintln(os.Stderr, "turboflux-bench:", err)
		if errors.Is(err, errNoExp) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run lists the experiments or runs one, writing the CPU profile, when
// asked for, on every path out.
func run(cfg harness.Config, exp string, list bool, cpuProfile, csvDir string) (err error) {
	if cpuProfile != "" {
		f, ferr := os.Create(cpuProfile)
		if ferr != nil {
			return ferr
		}
		if ferr = pprof.StartCPUProfile(f); ferr != nil {
			f.Close() //tf:unchecked-ok the start error is the one reported
			return ferr
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
	}

	if list {
		fmt.Println(strings.Join(harness.Experiments(), "\n"))
		return nil
	}
	if exp == "" {
		return errNoExp
	}
	if csvDir != "" {
		cfg.CSV = harness.NewCSVSink(csvDir)
	}
	start := time.Now()
	if err := harness.Run(exp, cfg); err != nil {
		return err
	}
	if cfg.CSV != nil {
		if err := cfg.CSV.Flush(); err != nil {
			return fmt.Errorf("writing csv: %w", err)
		}
		fmt.Fprintf(os.Stdout, "[csv written to %s]\n", csvDir)
	}
	fmt.Fprintf(os.Stdout, "\n[%s completed in %s]\n", exp, time.Since(start).Round(time.Millisecond))
	return nil
}

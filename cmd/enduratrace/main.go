// Command enduratrace drives the paper reproduction end-to-end:
//
//	enduratrace sim      simulate a pipeline run and write its trace
//	enduratrace learn    fit a reference model from a trace
//	enduratrace monitor  monitor a trace with a learned model
//	enduratrace eval     run the full §III experiment and report metrics
//	enduratrace sweep    run a parallel ablation sweep with multi-seed CIs
//	enduratrace soak     run one long-horizon cell with streaming scoring
//	enduratrace serve    network daemon monitoring live TCP trace streams
//	enduratrace replay   re-score a captured anomaly store or raw trace
//	                     against any model — regression check / alpha tuner
//
// Every subcommand prints a human summary to stderr; machine-readable JSON
// goes to stdout (monitor/learn/serve behind -json, eval/sweep/soak always).
// See docs/CLI.md for the full flag reference.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "sim":
		err = cmdSim(os.Args[2:])
	case "learn":
		err = cmdLearn(os.Args[2:])
	case "monitor":
		err = cmdMonitor(os.Args[2:])
	case "eval":
		err = cmdEval(os.Args[2:])
	case "sweep":
		err = cmdSweep(os.Args[2:])
	case "soak":
		err = cmdSoak(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "replay":
		err = cmdReplay(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "enduratrace: unknown subcommand %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err == flag.ErrHelp {
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "enduratrace: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: enduratrace <subcommand> [flags]

subcommands:
  sim      simulate a multimedia pipeline run and write its trace
  learn    fit a reference model (LOF over window pmfs) from a trace
  monitor  replay a trace through the online monitor, record anomalies
  eval     run the full reference+perturbed experiment and score it
  sweep    expand a parameter grid and run the cells in parallel,
           aggregating per-cell mean ± 95% CI over seeds
  soak     run one long-horizon cell with periodic progress and
           constant-memory streaming scoring
  serve    long-lived daemon: accept live trace streams over TCP, score
           each against a registry of named models (hot-reloadable via
           SIGHUP or POST /reload), expose HTTP admin + Prometheus
           /metrics endpoints; -anomaly-store persists every gate trip
  replay   re-score a captured anomaly store (or a raw .etrc trace)
           against any registry model: per-incident still-detected /
           lost / new-detection verdicts, -alpha threshold what-ifs

run 'enduratrace <subcommand> -h' for per-subcommand flags, or see
docs/CLI.md for the full reference.
`)
}

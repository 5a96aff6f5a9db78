// Command enduratrace drives the paper reproduction end-to-end. Its
// subcommands are the subcommands table below; `enduratrace help` lists
// them and docs/CLI.md holds the full flag reference.
//
// Every subcommand prints a human summary to stderr; machine-readable JSON
// goes to stdout (monitor/learn/serve behind -json, eval/sweep/replay
// always).
package main

import (
	"flag"
	"fmt"
	"os"
)

// subcommands is the one list of subcommands: main dispatches on it and
// usage prints it.
var subcommands = []struct {
	name, summary string
	run           func([]string) error
}{
	{"sim", "simulate a multimedia pipeline run and write (or stream) its trace", cmdSim},
	{"learn", "fit a reference model (LOF over window pmfs) from a trace", cmdLearn},
	{"monitor", "score a trace with a learned model, record the anomalous windows", cmdMonitor},
	{"eval", "run the reference+perturbed experiment, of any length, and score it", cmdEval},
	{"sweep", "run a parameter grid in parallel, mean ± 95% CI over seeds", cmdSweep},
	{"serve", "daemon scoring live TCP trace streams against a model registry", cmdServe},
	{"replay", "re-score a captured anomaly store against any model", cmdReplay},
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "help", "-h", "--help":
		usage()
		return
	}
	for _, c := range subcommands {
		if c.name != os.Args[1] {
			continue
		}
		err := c.run(os.Args[2:])
		if err == flag.ErrHelp {
			os.Exit(2)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "enduratrace: %v\n", err)
			os.Exit(1)
		}
		return
	}
	fmt.Fprintf(os.Stderr, "enduratrace: unknown subcommand %q\n\n", os.Args[1])
	usage()
	os.Exit(2)
}

func usage() {
	fmt.Fprint(os.Stderr, "usage: enduratrace <subcommand> [flags]\n\nsubcommands:\n")
	for _, c := range subcommands {
		fmt.Fprintf(os.Stderr, "  %-8s %s\n", c.name, c.summary)
	}
	fmt.Fprint(os.Stderr, "\nrun 'enduratrace <subcommand> -h' for per-subcommand flags, or see\ndocs/CLI.md for the full reference.\n")
}

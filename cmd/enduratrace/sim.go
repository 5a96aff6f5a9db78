package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"time"

	"enduratrace/internal/mediasim"
	"enduratrace/internal/perturb"
	"enduratrace/internal/trace"
	"enduratrace/internal/traceio"
)

// loadFlags declares the shared perturbation-schedule flags and returns a
// builder for the resulting load profile.
func loadFlags(fs *flag.FlagSet) func(horizon time.Duration) (perturb.Load, error) {
	factor := fs.Float64("factor", 1, "CPU slowdown during perturbations (1 = none)")
	first := fs.Duration("perturb-first", 60*time.Second, "start of the first perturbation")
	period := fs.Duration("perturb-period", 2*time.Minute, "perturbation period")
	dur := fs.Duration("perturb-duration", 20*time.Second, "length of each perturbation")
	return func(horizon time.Duration) (perturb.Load, error) {
		if *factor <= 1 {
			return perturb.None{}, nil
		}
		return perturb.Periodic(*factor, *first, *period, *dur, horizon)
	}
}

func cmdSim(args []string) error {
	fs := flag.NewFlagSet("enduratrace sim", flag.ContinueOnError)
	out := fs.String("out", "", "output trace file ('-' for stdout, 'tcp://host:port' to stream to a serve daemon; required)")
	text := fs.Bool("text", false, "write CSV text instead of the binary codec")
	duration := fs.Duration("duration", 10*time.Minute, "simulated horizon")
	seed := fs.Int64("seed", 1, "simulation seed")
	stream := fs.String("stream", "", "stream name sent to the serve daemon (tcp:// output only)")
	model := fs.String("model", "", "registry model to score this stream with (tcp:// output only; '' = the daemon's default, sent as a v1 frame header)")
	flushEvery := fs.Int("flush-every", 0, "flush the framed stream every N events (tcp:// output only; 0 = flush only when a frame fills, the batch-friendly default)")
	mkLoad := loadFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		fs.Usage()
		return fmt.Errorf("sim: -out is required")
	}
	load, err := mkLoad(*duration)
	if err != nil {
		return err
	}
	cfg := mediasim.DefaultConfig()
	cfg.Duration = *duration
	cfg.Seed = *seed
	cfg.Load = load
	sim, err := mediasim.New(cfg)
	if err != nil {
		return err
	}

	if addr, ok := strings.CutPrefix(*out, "tcp://"); ok {
		if *text {
			return fmt.Errorf("sim: -text is not supported with a tcp:// output")
		}
		return simToServer(sim, addr, *stream, *model, *duration, *flushEvery)
	}
	if *model != "" {
		return fmt.Errorf("sim: -model only applies to a tcp:// output")
	}
	if *flushEvery != 0 {
		return fmt.Errorf("sim: -flush-every only applies to a tcp:// output")
	}

	var w io.Writer = os.Stdout
	closeOut := func() error { return nil }
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		closeOut = f.Close
		w = f
	}
	var tw trace.Writer
	var flush func() error
	var size func() int64
	if *text {
		t := traceio.NewTextWriter(w, mediasim.Registry())
		tw, flush, size = t, t.Flush, func() int64 { return -1 }
	} else {
		b, err := traceio.NewBinaryWriter(w)
		if err != nil {
			return err
		}
		tw, flush, size = b, b.Flush, b.BytesWritten
	}
	n, err := trace.Copy(tw, sim)
	if err != nil {
		return err
	}
	if err := flush(); err != nil {
		return err
	}
	if err := closeOut(); err != nil {
		return err
	}
	if bytes := size(); bytes >= 0 {
		fmt.Fprintf(os.Stderr, "sim: %d events over %v, %d bytes encoded\n", n, *duration, bytes)
	} else {
		fmt.Fprintf(os.Stderr, "sim: %d events over %v\n", n, *duration)
	}
	return nil
}

// simToServer streams the simulation to a running `enduratrace serve`
// daemon over the framed TCP protocol and closes the stream cleanly. A
// non-empty model is sent in a v2 frame header, asking the daemon to
// score the stream with that registry model. flushEvery > 0 forces a
// frame flush every that many events, trading the batch-sized frames the
// server's batched ingest likes best for lower per-event latency.
func simToServer(sim *mediasim.Sim, addr, stream, model string, duration time.Duration, flushEvery int) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("sim: dialing serve daemon: %w", err)
	}
	defer conn.Close()
	fw, err := traceio.NewFrameWriterModel(conn, stream, model)
	if err != nil {
		return err
	}
	evs := make([]trace.Event, 512)
	n := 0
	for {
		k, rerr := sim.ReadBatch(evs)
		for _, ev := range evs[:k] {
			if err := fw.Write(ev); err != nil {
				return err
			}
			n++
			if flushEvery > 0 && n%flushEvery == 0 {
				if err := fw.Flush(); err != nil {
					return err
				}
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return rerr
		}
	}
	if err := fw.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "sim: streamed %d events over %v to %s\n", n, duration, addr)
	return nil
}

// openTrace opens a binary trace file ('-' for stdin).
func openTrace(path string) (trace.Reader, func() error, error) {
	if path == "-" {
		r, err := traceio.NewBinaryReader(os.Stdin)
		return r, func() error { return nil }, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	r, err := traceio.NewBinaryReader(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return r, f.Close, nil
}

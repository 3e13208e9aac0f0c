// Command perfbench is the repository benchmark. It runs one named
// workload of the RETRI simulator, built from a seed, for a time budget:
// it measures set-up, then repeats passes over the workload's trial set
// until the budget is spent, checks every trial's outputs, and prints the
// metrics as one JSON object on the last line of standard output.
//
//	go run . --workload collision-mesh --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the JSON carries the end-to-end metrics, measured with
// all tracing off. With --trace 1 the run repeats the same trials traced
// (metrics registry, CPU profile, shard phase wrappers) and the JSON
// carries the per-layer metrics instead. --workload all runs every
// workload in its own child process and prints each report.
//
// A failed correctness check or a determinism mismatch makes the command
// exit non-zero after printing its result.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+" or all")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; every input is derived from it")
	fs.Float64Var(&o.seconds, "seconds", 20, "measurement budget in host seconds")
	fs.IntVar(&trace, "trace", 0, "0 for end-to-end metrics, 1 for the traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	if !(o.seconds > 0) || math.IsInf(o.seconds, 0) {
		return o, fmt.Errorf("--seconds must be positive, got %v", o.seconds)
	}
	if o.workload != "all" && lookupWorkload(o.workload) == nil {
		return o, fmt.Errorf("unknown workload %q (want %s or all)", o.workload, strings.Join(workloadNames(), ", "))
	}
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if o.workload == "all" {
		return runAll(o, stdout, stderr)
	}
	res, err := runWorkload(lookupWorkload(o.workload), o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs each workload in a child process of its own, so peak
// resident memory is the workload's alone, and folds the children's
// results into one object keyed "<workload>/<metric>". A child that
// outlives three budgets and a minute and a half is killed as hung.
func runAll(o options, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads {
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration((3*o.seconds+90)*float64(time.Second)))
		cmd := exec.CommandContext(ctx, self, "--workload", w.name, "--seed", strconv.FormatUint(o.seed, 10),
			"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", trace)
		cmd.Stderr = stderr
		out, err := cmd.Output()
		cancel()
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			fmt.Fprintf(stderr, "perfbench: %s timed out\n", w.name)
			return 1
		}
		var exitErr *exec.ExitError
		if err != nil && !errors.As(err, &exitErr) {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
			fmt.Fprintf(stderr, "perfbench: %s printed no result: %v\n", w.name, jerr)
			return 1
		}
		all.Correct = all.Correct && res.Correct && err == nil
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, m := range res.Metrics {
			all.Metrics[w.name+"/"+k] = m
		}
	}
	if err := json.NewEncoder(stdout).Encode(all); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !all.Correct {
		return 1
	}
	return 0
}

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Command rtossbench is the repository's benchmark: three workloads
// over the real serving stack, each checked bit for bit against an
// unbatched reference. An untraced run prints the end-to-end metrics;
// a traced run (--trace 1) prints the per-layer metrics. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash rtossbench/run.sh --workload zoo-detect-closed --seed 1 --seconds 30 --trace 0
//
// See README.md in this directory for the metrics and workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// setupChildren is how many extra cold set-ups a run times in child
// processes. The zoo build is memoised per process, so only a fresh
// process times a cold one; with the run's own set-up that gives three
// samples, and setup_s is their median.
const setupChildren = 2

// traceDir receives the traced runs' span files, relative to the
// directory the benchmark runs in.
const traceDir = ".bench_build/traces"

func traceName(cfg config) string {
	return fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed)
}

func main() {
	var (
		name      = flag.String("workload", "", "workload name")
		seed      = flag.Int64("seed", 1, "input seed")
		seconds   = flag.Float64("seconds", 25, "measured seconds")
		trace     = flag.Int("trace", 0, "1 runs the traced per-layer run")
		setupOnly = flag.Bool("setup-only", false, "time one cold set-up and print it as JSON (used by the run itself)")
	)
	flag.Parse()
	wl, ok := lookup(*name)
	if !ok {
		fail(fmt.Errorf("unknown workload %q (want one of %s)", *name, workloadNames()))
	}
	if *setupOnly {
		st, stop, err := wl.setup()
		if err != nil {
			fail(err)
		}
		stop()
		if err := json.NewEncoder(os.Stdout).Encode(st); err != nil {
			fail(err)
		}
		return
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fail(fmt.Errorf("--seconds must be positive and --trace 0 or 1"))
	}
	cfg := config{workload: wl.name, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1}

	fmt.Printf("rtossbench: workload %s (%s)\n", wl.name, wl.why)
	fmt.Printf("machine: nproc %d, GOMAXPROCS %d, %s %s/%s, seed %d, %v measured, trace %d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, cfg.seed, cfg.seconds, *trace)
	setups, err := childSetups(wl.name)
	if err != nil {
		fail(err)
	}
	o, err := wl.run(cfg, setups)
	if err != nil {
		fail(err)
	}
	for _, n := range o.notes {
		fmt.Println(n)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		printKernels(o.kernels, o.metrics)
		fmt.Printf("spans: %s\n", o.tracePath)
	}
	fmt.Printf("error_rate %.4f ratio (%d failed of %d attempted)\n", ratio(float64(o.failed), float64(o.attempted)), o.failed, o.attempted)
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: o.failed == 0 && o.attempted > 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v := o.metrics[d.Name]
		fmt.Printf("%-40s %14.4f %s\n", d.Name, v, d.Unit)
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// childSetups times cold set-ups in fresh processes, one at a time, and
// waits for each to exit.
func childSetups(name string) ([]stages, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []stages
	for i := 0; i < setupChildren; i++ {
		cmd := exec.Command(exe, "--setup-only", "--workload", name)
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		var st stages
		if err := json.Unmarshal(b, &st); err != nil {
			return nil, fmt.Errorf("set-up child output: %w", err)
		}
		out = append(out, st)
	}
	return out, nil
}

func printKernels(rows []kernelRow, m map[string]float64) {
	fmt.Printf("%-12s %6s %10s %10s %9s %8s %9s\n", "conv class", "layers", "ms", "MMAC", "GMAC/s", "share", "hw share")
	kernels := m["tensor.maxpool.ms"] + m["tensor.upsample.ms"] + m["tensor.concat.ms"]
	for _, r := range rows {
		fmt.Printf("%-12s %6d %10.3f %10.2f %9.3f %8.3f %9.3f\n", r.Class, r.Layers, r.MS, r.MMACs, r.GMACs, r.Share, r.HWShare)
		kernels += r.MS
	}
	fmt.Printf("forward %.3f ms = replayed kernels %.3f ms + engine self %.3f ms\n", m["engine.forward_ms"], kernels, m["engine.self_ms"])
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "rtossbench:", err)
	os.Exit(2)
}

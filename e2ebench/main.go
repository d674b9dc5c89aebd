// Command e2ebench measures one workload of the detection library and the
// mcmcd service end to end, on this host, and prints its metrics.
//
//	e2ebench --workload detect-seq --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones. With --trace 1 the workload runs with spans
// recorded, probes then call into each layer, and the metrics are the
// per-layer ones. See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// setupReps is how many times a run sets the workload up; setup_s is the
// median. Every set-up but the last is torn down again.
const setupReps = 5

// outDir, relative to the working directory, holds the spools of a run
// (removed when it ends) and the span files of traced runs.
const outDir = ".bench_build"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: detect-seq, detect-par, jobs-standalone or jobs-cluster")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 10, "length of the timed phase")
	traced := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "e2ebench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traced)
		return 2
	}
	dir := filepath.Join(outDir, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	rep, err := measureWorkload(w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, dir, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", w.name, err)
		return 1
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}

// environment describes the host and build a result was measured on.
func environment(w workload, seed uint64, traced bool) map[string]any {
	source := os.Getenv("E2EBENCH_SOURCE")
	if source == "" {
		source = "unknown"
	}
	return map[string]any{
		"workload": w.name, "seed": seed, "trace": traced,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "source": source,
	}
}

func measureWorkload(w workload, seed uint64, dur time.Duration, traced bool, dir string, stdout, stderr io.Writer) (*report, error) {
	ctx := context.Background()
	env := environment(w, seed, traced)
	envJSON, _ := json.Marshal(env)
	fmt.Fprintf(stdout, "# env %s\n", envJSON)

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var setups []float64
	var inst instance
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		in, err := w.setup(seed, tr, dir)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if err := in.op(ctx, 0); err != nil {
			in.close()
			return nil, fmt.Errorf("warm-up operation: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if r == setupReps-1 {
			inst = in
		} else if err := in.close(); err != nil {
			return nil, fmt.Errorf("tear-down: %w", err)
		}
	}
	res := measure(ctx, inst, w.clients, dur, 0)
	correct := true
	if err := inst.verify(); err != nil {
		correct = false
		fmt.Fprintf(stderr, "e2ebench: %s: wrong output: %v\n", w.name, err)
	}
	if err := inst.close(); err != nil {
		return nil, fmt.Errorf("tear-down: %w", err)
	}
	for _, err := range res.errs {
		fmt.Fprintf(stderr, "e2ebench: %s: operation failed: %v\n", w.name, err)
	}
	completed := len(res.lat)
	if completed == 0 {
		return nil, fmt.Errorf("no operation completed")
	}
	e2e := map[string]metric{
		"setup_s":       {median(setups), "s"},
		"latency_s_p50": {median(res.lat), "s"},
		"ops_per_s":     {float64(completed) / res.wall.Seconds(), "1/s"},
		"cpu_s_per_op":  {res.cpu.Seconds() / float64(completed), "s"},
		"mem_peak_mb":   {peakRSSMB(), "MB"},
	}
	label := "end-to-end"
	if traced {
		label = "traced end-to-end (compare with an untraced run for the tracing overhead)"
	}
	fmt.Fprintf(stdout, "# %s %s: attempted %d, failed %d, correct %v\n", w.name, label, res.attempted, res.failed, correct)
	printMetrics(stdout, e2e)
	fmt.Fprintf(stdout, "#   samples: setup_s %d, latency %d\n", len(setups), completed)
	if completed >= 100 {
		fmt.Fprintf(stdout, "#   latency_s_p90 %.6g s (n=%d)\n", quantile(res.lat, 0.9), completed)
	} else {
		fmt.Fprintf(stdout, "#   latency_s_p90 omitted: %d samples, fewer than 100\n", completed)
	}
	rep := &report{Correct: correct, Attempted: res.attempted, Failed: res.failed, Metrics: e2e}
	if !traced {
		return rep, nil
	}

	layers, err := probeLayers(ctx, w, seed, tr, dir)
	if err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	rep.Metrics = map[string]metric{}
	for _, l := range perLayer {
		v, ok := layers[l.name]
		if !ok {
			return nil, fmt.Errorf("layer probes did not measure %s", l.name)
		}
		rep.Metrics[l.name] = metric{v, l.unit}
	}
	fmt.Fprintf(stdout, "# %s per-layer\n", w.name)
	printMetrics(stdout, rep.Metrics)
	path := filepath.Join(outDir, "spans", fmt.Sprintf("%s-seed%d.json", w.name, seed))
	if err := tr.write(path, env); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(stdout, "# spans: %s\n", path)
	return rep, nil
}

func printMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "#   %-36s %.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// loopResult is what a closed loop of operations measured.
type loopResult struct {
	lat       []float64 // seconds, one per completed operation
	attempted int
	failed    int
	errs      []error
	wall      time.Duration // from the start to the last completion
	cpu       time.Duration // process CPU time over the same phase
}

// measure runs a closed loop: each client starts its next operation when
// the previous one returns, cycling over the inputs in whole rounds. It
// stops at the first round boundary after dur, or after rounds rounds
// when rounds > 0.
func measure(ctx context.Context, inst instance, clients int, dur time.Duration, rounds int) loopResult {
	var (
		res  loopResult
		mu   sync.Mutex
		wg   sync.WaitGroup
		last time.Time
	)
	start := time.Now()
	deadline := start.Add(dur)
	cpu0 := cpuTime()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := 0; ; j++ {
				if j%inputsPerRound == 0 {
					if rounds > 0 && j == rounds*inputsPerRound {
						return
					}
					if rounds == 0 && !time.Now().Before(deadline) {
						return
					}
				}
				t0 := time.Now()
				err := inst.op(ctx, (c+j)%inputsPerRound)
				t1 := time.Now()
				mu.Lock()
				res.attempted++
				if err != nil {
					res.failed++
					res.errs = append(res.errs, err)
				} else {
					res.lat = append(res.lat, t1.Sub(t0).Seconds())
				}
				if t1.After(last) {
					last = t1
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	res.cpu = cpuTime() - cpu0
	res.wall = last.Sub(start)
	return res
}

// perLayer lists the per-layer metrics a traced run reports, in the order
// and with the units of BENCHMARK.json.
var perLayer = func() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, struct{ name, unit string }{n, unit})
		}
	}
	add("ns", "model.lik_delta_add_ns", "model.lik_delta_remove_ns", "model.lik_delta_move_ns", "mcmc.iter_ns")
	add("ratio", "mcmc.accept_rate")
	for _, k := range probedMoves {
		add("ns", "mcmc.move_ns."+k.String())
	}
	add("s", "core.local_s", "core.global_s", "core.other_s")
	add("count", "core.barriers")
	add("ratio", "core.local_speedup")
	add("us", "spec.batch_us")
	add("ratio", "spec.consumed_per_batch", "spec.evals_per_consumed")
	add("count", "spec.width")
	add("ratio", "spec.global_speedup")
	add("ns", "sched.gang_run_ns")
	add("us", "parmcmc.checkpoint_encode_us", "parmcmc.checkpoint_decode_us")
	add("bytes", "parmcmc.checkpoint_bytes")
	add("count", "parmcmc.checkpoints_per_job")
	add("ms", "service.submit_ms_p50", "service.queue_ms_p50")
	add("s", "service.run_s_p50")
	add("ms", "service.overhead_ms_p50")
	add("count", "service.requests_per_job")
	add("bytes", "service.spool_bytes_per_job")
	add("ms", "coordinator.lease_wait_ms_p50", "coordinator.progress_post_ms_p50")
	add("count", "coordinator.progress_posts_per_job")
	add("ms", "coordinator.complete_ms_p50")
	add("1/s", "coordinator.heartbeats_per_s")
	add("ms", "client.first_progress_ms_p50")
	add("count", "client.events_per_job")
	return out
}()

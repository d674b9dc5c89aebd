package main

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/imaging"
	"repro/internal/mcmc"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/spec"
	"repro/internal/trace"
	"repro/pkg/parmcmc"
)

// Probe sizes. Kernel and gang calls take well under a microsecond, so
// they are timed in batches of batchCalls, one span per batch.
const (
	batchCalls    = 1000
	kernelBatches = 20
	moveBlocks    = 4 // rounds over the move kinds, batchCalls/2 calls each
	specBatches   = 4000
	gangBatches   = 20
	codecReps     = 10
	probeRounds   = 3 // closed-loop rounds per client in the standalone probe

	clusterProbeTime = 6 * time.Second

	// daemonCheckpointEvery is service.Config's default checkpoint
	// cadence, at which the daemon spools checkpoints.
	daemonCheckpointEvery = 25000
)

// probeInputs are the scenes and detection budget a workload's layer
// probes run on: the workload's own scene family.
func probeInputs(name string, seed uint64) (scenes, int) {
	if strings.HasPrefix(name, "detect-") {
		return makeScenes(seed, detectSize, detectCount, detectRadius, true), detectIters
	}
	return makeScenes(seed, jobSize, jobCount, jobRadius, false), jobIters
}

// probeLayers measures every layer on the workload's inputs and returns
// the per-layer metrics by name.
func probeLayers(ctx context.Context, w workload, seed uint64, tr *tracer, dir string) (map[string]float64, error) {
	sc, iters := probeInputs(w.name, seed)
	m := map[string]float64{}
	var acc layerSums
	// One uniform and (for detection scenes) one clustered scene.
	for _, k := range []int{0, inputsPerRound / 2} {
		ch, err := equilibrate(sc, k, iters, tr)
		if err != nil {
			return nil, err
		}
		for _, probe := range []func(*chain, *tracer, *layerSums) error{
			probeModel, probeMCMC, probeCore, probeSpec,
		} {
			if err := probe(ch, tr, &acc); err != nil {
				return nil, err
			}
		}
	}
	acc.fill(m)
	probeSched(tr, m)
	if err := probeCheckpoints(w, sc, iters, tr, m); err != nil {
		return nil, err
	}
	if err := probeDaemons(ctx, seed, tr, dir, m); err != nil {
		return nil, err
	}
	return m, nil
}

// chain is a detection chain run to equilibrium on one scene; clone
// starts an independent engine from its state.
type chain struct {
	im      *imaging.Image
	params  model.Params
	weights mcmc.Weights
	steps   mcmc.StepSizes
	dump    mcmc.EngineDump
	job     string
}

// equilibrate builds the engine the Sequential strategy builds (same
// parameters, weights and step sizes) and runs it for the full budget.
func equilibrate(sc scenes, k, iters int, tr *tracer) (*chain, error) {
	im := &imaging.Image{W: sc.w, H: sc.h, Pix: append([]float64(nil), sc.pix[k]...)}
	im.Clamp()
	ch := &chain{
		im:      im,
		params:  model.DefaultParams(math.Max(im.EstimateCount(0.5, sc.meanRadius), 0.5), sc.meanRadius),
		weights: mcmc.DefaultWeightsFor(geom.KindDisc),
		steps:   mcmc.DefaultStepSizes(sc.meanRadius).WithEllipseDefaults(),
		job:     fmt.Sprintf("probe-scene-%d", k),
	}
	s, err := model.NewState(im, ch.params)
	if err != nil {
		return nil, err
	}
	e, err := mcmc.New(s, rng.New(sc.seeds[k]), ch.weights, ch.steps)
	if err != nil {
		return nil, err
	}
	tr.do("mcmc.Engine.RunN", ch.job, 0, iters, func() { e.RunN(iters) })
	ch.dump = e.Dump()
	return ch, nil
}

func (ch *chain) clone() (*mcmc.Engine, error) {
	s, err := model.NewState(ch.im, ch.params)
	if err != nil {
		return nil, err
	}
	e, err := mcmc.New(s, rng.New(1), ch.weights, ch.steps)
	if err != nil {
		return nil, err
	}
	return e, e.Restore(ch.dump)
}

// layerSums accumulates the scene probes' time and call counts.
type layerSums struct {
	kernelNs    [3]float64 // add, remove, move
	kernelCalls [3]float64
	iterNs      float64
	iters       float64
	accepted    float64
	moveNs      [mcmc.NumMoves]float64
	moveCalls   [mcmc.NumMoves]float64

	local, global, other, localOne float64
	barriers                       float64
	globalNoSpec, globalSpec       float64

	batchNs, batches, consumed, evals float64
}

var probedMoves = []mcmc.Move{mcmc.Birth, mcmc.Death, mcmc.Split, mcmc.Merge, mcmc.Replace, mcmc.Shift, mcmc.Resize}

func (a *layerSums) fill(m map[string]float64) {
	for i, n := range []string{"add", "remove", "move"} {
		m["model.lik_delta_"+n+"_ns"] = a.kernelNs[i] / a.kernelCalls[i]
	}
	m["mcmc.iter_ns"] = a.iterNs / a.iters
	m["mcmc.accept_rate"] = a.accepted / a.iters
	for _, k := range probedMoves {
		m["mcmc.move_ns."+k.String()] = a.moveNs[k] / a.moveCalls[k]
	}
	m["core.local_s"] = a.local
	m["core.global_s"] = a.global
	m["core.other_s"] = a.other
	m["core.barriers"] = a.barriers
	m["core.local_speedup"] = a.localOne / a.local
	m["spec.batch_us"] = a.batchNs / a.batches / 1e3
	m["spec.consumed_per_batch"] = a.consumed / a.batches
	m["spec.evals_per_consumed"] = a.evals / a.consumed
	m["spec.width"] = a.evals / a.batches
	m["spec.global_speedup"] = a.globalNoSpec / a.globalSpec
}

var sink float64

// probeModel times the three likelihood kernels on shapes drawn from the
// equilibrium configuration: removals of live discs, births of live discs
// moved to uniform positions, and shifts by the sampler's step size.
func probeModel(ch *chain, tr *tracer, a *layerSums) error {
	e, err := ch.clone()
	if err != nil {
		return err
	}
	live := e.S.Cfg.Circles()
	if len(live) == 0 {
		return fmt.Errorf("%s: empty equilibrium configuration", ch.job)
	}
	r := rng.New(uint64(len(live)))
	adds := make([]geom.Ellipse, batchCalls)
	olds := make([]geom.Ellipse, batchCalls)
	moves := make([]geom.Ellipse, batchCalls)
	for i := range adds {
		c := live[r.Intn(len(live))]
		c.X, c.Y = r.Uniform(0, float64(ch.im.W)), r.Uniform(0, float64(ch.im.H))
		adds[i] = c
		olds[i] = live[i%len(live)]
		moves[i] = olds[i]
		moves[i].X += r.NormalAt(0, ch.steps.ShiftStd)
		moves[i].Y += r.NormalAt(0, ch.steps.ShiftStd)
	}
	f := &e.S.F
	kernels := []struct {
		name string
		fn   func(i int) float64
	}{
		{"model.Field.LikDeltaAdd", func(i int) float64 { return f.LikDeltaAdd(adds[i]) }},
		{"model.Field.LikDeltaRemove", func(i int) float64 { return f.LikDeltaRemove(olds[i]) }},
		{"model.Field.LikDeltaMove", func(i int) float64 { return f.LikDeltaMove(olds[i], moves[i]) }},
	}
	for b := 0; b < kernelBatches; b++ {
		for ki, k := range kernels {
			d := tr.do(k.name, ch.job, 0, batchCalls, func() {
				for i := 0; i < batchCalls; i++ {
					sink += k.fn(i)
				}
			})
			a.kernelNs[ki] += float64(d.Nanoseconds())
			a.kernelCalls[ki] += batchCalls
		}
	}
	return nil
}

// probeMCMC times Engine.RunN at equilibrium, then Propose+Decide in
// blocks of one move kind at a time.
func probeMCMC(ch *chain, tr *tracer, a *layerSums) error {
	e, err := ch.clone()
	if err != nil {
		return err
	}
	n := 50 * batchCalls
	var acc int
	d := tr.do("mcmc.Engine.RunN", ch.job, 0, n, func() { acc = e.RunN(n) })
	a.iterNs += float64(d.Nanoseconds())
	a.iters += float64(n)
	a.accepted += float64(acc)
	block := batchCalls / 2
	for round := 0; round < moveBlocks; round++ {
		for _, k := range probedMoves {
			d := tr.do("mcmc.Engine.Propose+Decide."+k.String(), ch.job, 0, block, func() {
				for i := 0; i < block; i++ {
					e.Decide(e.Propose(k))
				}
			})
			a.moveNs[k] += float64(d.Nanoseconds())
			a.moveCalls[k] += float64(block)
		}
	}
	return nil
}

// runCore runs the periodic engine from the equilibrium state and returns
// its wall time, phase totals and barrier count.
func runCore(ch *chain, tr *tracer, workers int, speculative bool, iters int) (wall, local, global time.Duration, barriers int64, err error) {
	e, err := ch.clone()
	if err != nil {
		return 0, 0, 0, 0, err
	}
	pt := trace.NewPhaseTimer()
	pe, err := core.NewEngine(e, core.Options{
		LocalPhaseIters: 300,
		GridXM:          float64(ch.im.W) / 2 * 1.01,
		GridYM:          float64(ch.im.H) / 2 * 1.01,
		Workers:         workers,
		SpecAdaptive:    speculative,
		Timer:           pt,
	})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer pe.Close()
	name := fmt.Sprintf("core.Engine.Run workers=%d spec=%v", workers, speculative)
	wall = tr.do(name, ch.job, 0, 0, func() { pe.Run(iters) })
	return wall, pt.Total("local"), pt.Total("global"), pe.Barriers, nil
}

// probeCore runs the detect-par engine configuration (periodic, 2×2 grid,
// adaptive speculation) at nproc workers and at one, and without
// speculation at nproc workers for the spec layer's global speed-up.
func probeCore(ch *chain, tr *tracer, a *layerSums) error {
	iters := 100 * batchCalls
	wall, local, global, barriers, err := runCore(ch, tr, nproc(), true, iters)
	if err != nil {
		return err
	}
	a.local += local.Seconds()
	a.global += global.Seconds()
	a.other += (wall - local - global).Seconds()
	a.barriers += float64(barriers)
	a.globalSpec += global.Seconds()
	_, local1, _, _, err := runCore(ch, tr, 1, true, iters)
	if err != nil {
		return err
	}
	a.localOne += local1.Seconds()
	_, _, globalNoSpec, _, err := runCore(ch, tr, nproc(), false, iters)
	if err != nil {
		return err
	}
	a.globalNoSpec += globalNoSpec.Seconds()
	return nil
}

// probeSpec drives the speculative executor batch by batch at the width
// its adaptive controller picks, over the chain's global moves.
func probeSpec(ch *chain, tr *tracer, a *layerSums) error {
	e, err := ch.clone()
	if err != nil {
		return err
	}
	wn := e.W.Normalised()
	var globals []mcmc.Move
	for k := mcmc.Move(0); k < mcmc.NumMoves; k++ {
		if k.IsGlobal() && wn[k] > 0 {
			globals = append(globals, k)
		}
	}
	x := spec.NewExecutorOpts(e, spec.Config{Workers: nproc()}, globals)
	defer x.Close()
	for b := 0; b < specBatches; b++ {
		width := x.Width()
		d := tr.do("spec.Executor.StepBatch", ch.job, 0, 0, func() { x.StepBatch(width) })
		a.batchNs += float64(d.Nanoseconds())
		a.evals += float64(width)
	}
	a.batches += float64(x.Batches)
	a.consumed += float64(x.Consumed)
	return nil
}

// probeSched times an empty gang round at width nproc.
func probeSched(tr *tracer, m map[string]float64) {
	g := sched.NewGang(nproc())
	defer g.Close()
	var total time.Duration
	for b := 0; b < gangBatches; b++ {
		total += tr.do("sched.Gang.Run", "", 0, batchCalls, func() {
			for i := 0; i < batchCalls; i++ {
				g.Run(nproc(), func(int, int) {})
			}
		})
	}
	m["sched.gang_run_ns"] = float64(total.Nanoseconds()) / (gangBatches * batchCalls)
}

// probeCheckpoints captures the checkpoints one detection with the
// workload's options emits at the daemon's cadence, and times their
// encoding and decoding.
func probeCheckpoints(w workload, sc scenes, iters int, tr *tracer, m map[string]float64) error {
	o := parmcmc.Options{Strategy: parmcmc.Sequential, MeanRadius: sc.meanRadius, Iterations: iters, Workers: 1}
	if w.name == "detect-par" {
		o = detectOptions(true)
	}
	o.Seed = sc.seeds[0]
	var cps []*parmcmc.Checkpoint
	o.CheckpointEvery = daemonCheckpointEvery
	o.OnCheckpoint = func(cp *parmcmc.Checkpoint) { cps = append(cps, cp) }
	if _, err := parmcmc.Detect(sc.pix[0], sc.w, sc.h, o); err != nil {
		return err
	}
	if len(cps) == 0 {
		return fmt.Errorf("no checkpoints emitted")
	}
	var enc, dec, size []float64
	for i, cp := range cps {
		job := fmt.Sprintf("probe-checkpoint-%d", i)
		for r := 0; r < codecReps; r++ {
			var b []byte
			var err error
			d := tr.do("parmcmc.Checkpoint.MarshalBinary", job, 0, 0, func() { b, err = cp.MarshalBinary() })
			if err != nil {
				return err
			}
			enc = append(enc, d.Seconds()*1e6)
			size = append(size, float64(len(b)))
			var back parmcmc.Checkpoint
			d = tr.do("parmcmc.Checkpoint.UnmarshalBinary", job, 0, 0, func() { err = back.UnmarshalBinary(b) })
			if err != nil {
				return err
			}
			dec = append(dec, d.Seconds()*1e6)
		}
	}
	m["parmcmc.checkpoint_encode_us"] = median(enc)
	m["parmcmc.checkpoint_decode_us"] = median(dec)
	m["parmcmc.checkpoint_bytes"] = mean(size)
	m["parmcmc.checkpoints_per_job"] = float64(len(cps))
	return nil
}

// probeDaemons runs a short closed loop of the job workloads' traffic
// against a standalone daemon and against a cluster, with the span
// middleware on, and derives the service, coordinator and client metrics.
func probeDaemons(ctx context.Context, seed uint64, tr *tracer, dir string, m map[string]float64) error {
	for _, cluster := range []bool{false, true} {
		first := len(tr.snapshot())
		t0 := time.Now()
		inst, err := setupJobs(cluster)(seed, tr, dir)
		if err != nil {
			return err
		}
		j := inst.(*jobsRun)
		// Workers beat every LeaseTTL/3 (5 s by default); the cluster
		// probe runs long enough for each of them to beat.
		var res loopResult
		if cluster {
			res = measure(ctx, inst, nproc(), clusterProbeTime, 0)
		} else {
			res = measure(ctx, inst, nproc(), 0, probeRounds)
		}
		elapsed := time.Since(t0)
		if err := inst.close(); err != nil {
			return err
		}
		spool := j.d.spoolBytes
		if res.failed > 0 {
			return fmt.Errorf("daemon probe: %d of %d jobs failed: %v", res.failed, res.attempted, res.errs[0])
		}
		spans := tr.snapshot()[first:]
		byName := map[string][]float64{}
		requests := 0
		for _, s := range spans {
			if strings.HasPrefix(s.Name, "http ") {
				requests++
				byName[s.Name] = append(byName[s.Name], s.dur().Seconds())
			}
		}
		var queue, run, overhead, firstProg []float64
		events := 0
		for _, t := range j.timings {
			st := t.status
			q, r := st.Started.Sub(st.Submitted), st.Finished.Sub(*st.Started)
			queue = append(queue, q.Seconds())
			run = append(run, r.Seconds())
			overhead = append(overhead, (t.latency - r).Seconds())
			if t.firstProgress >= 0 {
				firstProg = append(firstProg, t.firstProgress.Seconds())
			}
			events += t.events
		}
		jobs := float64(len(j.timings))
		if cluster {
			lp := "http POST /internal/v1/leases/{id}/"
			m["coordinator.lease_wait_ms_p50"] = median(queue) * 1e3
			m["coordinator.progress_post_ms_p50"] = median(byName[lp+"progress"]) * 1e3
			m["coordinator.progress_posts_per_job"] = float64(len(byName[lp+"progress"])) / jobs
			m["coordinator.complete_ms_p50"] = median(byName[lp+"complete"]) * 1e3
			m["coordinator.heartbeats_per_s"] = float64(len(byName["http POST /internal/v1/workers/{id}/heartbeat"])) / elapsed.Seconds()
			continue
		}
		m["service.submit_ms_p50"] = median(byName["http POST /v1/jobs"]) * 1e3
		m["service.queue_ms_p50"] = median(queue) * 1e3
		m["service.run_s_p50"] = median(run)
		m["service.overhead_ms_p50"] = median(overhead) * 1e3
		m["service.requests_per_job"] = float64(requests) / jobs
		m["service.spool_bytes_per_job"] = float64(spool) / jobs
		m["client.first_progress_ms_p50"] = median(firstProg) * 1e3
		m["client.events_per_job"] = float64(events) / jobs
	}
	return nil
}

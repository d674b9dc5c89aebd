package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/imaging"
	"repro/pkg/api"
	"repro/pkg/client"
	"repro/pkg/parmcmc"
)

// inputsPerRound is how many distinct inputs a workload cycles through.
// Every client runs whole rounds, so each run attempts a multiple of it.
const inputsPerRound = 8

// scenes is one workload's seeded inputs: the pixels, the generator's
// ground truth and the detection seed of each scene.
type scenes struct {
	w, h       int
	meanRadius float64
	specs      []parmcmc.SceneSpec
	pix        [][]float64
	truth      [][]parmcmc.Ellipse
	seeds      []uint64
}

// makeScenes generates inputsPerRound scenes from the workload seed; the
// first half spread their artifacts uniformly, the second half clump them
// when clustered is set.
func makeScenes(seed uint64, size, count int, meanRadius float64, clustered bool) scenes {
	s := scenes{w: size, h: size, meanRadius: meanRadius}
	for k := 0; k < inputsPerRound; k++ {
		spec := parmcmc.SceneSpec{
			W: size, H: size, Count: count, MeanRadius: meanRadius, Noise: 0.06,
			Seed: parmcmc.DeriveSeed(seed, uint64(2*k+1)),
		}
		if clustered && k >= inputsPerRound/2 {
			spec.Clusters = 3
		}
		pix, truth := parmcmc.GenerateSceneShapes(spec)
		s.specs = append(s.specs, spec)
		s.pix = append(s.pix, pix)
		s.truth = append(s.truth, truth)
		s.seeds = append(s.seeds, parmcmc.DeriveSeed(seed, uint64(2*k+2)))
	}
	return s
}

// instance is one set-up workload: inputs made, daemon (if any) running.
type instance interface {
	// op runs one operation on input k.
	op(ctx context.Context, k int) error
	// verify checks every operation's output; it runs outside the timed
	// phase.
	verify() error
	close() error
}

type workload struct {
	name    string
	clients int
	setup   func(seed uint64, tr *tracer, dir string) (instance, error)
}

func nproc() int { return runtime.GOMAXPROCS(0) }

var workloads = map[string]workload{
	"detect-seq":      {"detect-seq", 1, setupDetect(false)},
	"detect-par":      {"detect-par", 1, setupDetect(true)},
	"jobs-standalone": {"jobs-standalone", nproc(), setupJobs(false)},
	"jobs-cluster":    {"jobs-cluster", nproc(), setupJobs(true)},
}

// Detection workloads: 512² disc scenes, 40 discs of mean radius 10,
// half uniform (fig. 4 layout) and half in three clumps (Table I layout),
// 200 000 iterations each.
const (
	detectSize   = 512
	detectCount  = 40
	detectRadius = 10
	detectIters  = 200000
)

func detectOptions(parallel bool) parmcmc.Options {
	if parallel {
		return parmcmc.Options{Strategy: parmcmc.PeriodicSpeculative, MeanRadius: detectRadius,
			Iterations: detectIters, Workers: nproc()}
	}
	return parmcmc.Options{Strategy: parmcmc.Sequential, MeanRadius: detectRadius,
		Iterations: detectIters, Workers: 1}
}

type detectRun struct {
	sc       scenes
	opt      parmcmc.Options
	parallel bool
	tr       *tracer
	ops      atomic.Int64

	mu      sync.Mutex
	results [][]*parmcmc.Result
}

func setupDetect(parallel bool) func(uint64, *tracer, string) (instance, error) {
	return func(seed uint64, tr *tracer, _ string) (instance, error) {
		return &detectRun{
			sc:       makeScenes(seed, detectSize, detectCount, detectRadius, true),
			opt:      detectOptions(parallel),
			parallel: parallel,
			tr:       tr,
			results:  make([][]*parmcmc.Result, inputsPerRound),
		}, nil
	}
}

func (d *detectRun) options(k int) parmcmc.Options {
	o := d.opt
	o.Seed = d.sc.seeds[k]
	return o
}

func (d *detectRun) op(ctx context.Context, k int) error {
	job := fmt.Sprintf("detect-%d", d.ops.Add(1))
	var res *parmcmc.Result
	var err error
	d.tr.do("parmcmc.Detect", job, 0, 0, func() {
		res, err = parmcmc.DetectContext(ctx, d.sc.pix[k], d.sc.w, d.sc.h, d.options(k))
	})
	if err != nil {
		return err
	}
	d.mu.Lock()
	d.results[k] = append(d.results[k], res)
	d.mu.Unlock()
	return nil
}

// verify checks every detection against the ground truth and against the
// first detection of the same scene (same seed, so the same chain). On
// detect-par it also reruns one scene of each layout at a fixed
// speculation width of 2: the realized chain does not depend on the width.
func (d *detectRun) verify() error {
	for k, rs := range d.results {
		for i, r := range rs {
			if err := checkF1(r.Ellipses, d.sc.truth[k], d.sc.meanRadius); err != nil {
				return fmt.Errorf("scene %d run %d: %w", k, i, err)
			}
			if err := sameChain(r, rs[0]); err != nil {
				return fmt.Errorf("scene %d run %d differs from run 0 with the same seed: %w", k, i, err)
			}
		}
		if !d.parallel || len(rs) == 0 || k%(inputsPerRound/2) != 0 {
			continue
		}
		o := d.options(k)
		o.SpecWidth = 2
		ref, err := parmcmc.Detect(d.sc.pix[k], d.sc.w, d.sc.h, o)
		if err != nil {
			return err
		}
		if err := sameChain(rs[0], ref); err != nil {
			return fmt.Errorf("scene %d: adaptive width differs from width 2: %w", k, err)
		}
	}
	return nil
}

func (d *detectRun) close() error { return nil }

// Job workloads: 256² scenes of 12 uniformly spread discs of mean radius
// 8, Sequential, one worker, 100 000 iterations per job.
const (
	jobSize   = 256
	jobCount  = 12
	jobRadius = 8
	jobIters  = 100000
)

// spoolSeq numbers the daemons one process starts.
var spoolSeq atomic.Int64

type jobsRun struct {
	sc      scenes
	cluster bool
	d       *daemon
	cl      *client.Client
	http    *http.Transport
	tr      *tracer
	pgm     [][]byte    // upload bodies (standalone)
	pix     [][]float64 // the pixels the service runs on
	mu      sync.Mutex
	done    [][]*api.JobStatus
	timings []jobTiming
}

// jobTiming is what the client saw of one job.
type jobTiming struct {
	latency       time.Duration
	firstProgress time.Duration // -1 when no progress event arrived
	events        int
	status        *api.JobStatus
}

func setupJobs(cluster bool) func(uint64, *tracer, string) (instance, error) {
	return func(seed uint64, tr *tracer, dir string) (instance, error) {
		j := &jobsRun{
			sc:      makeScenes(seed, jobSize, jobCount, jobRadius, false),
			cluster: cluster,
			tr:      tr,
			done:    make([][]*api.JobStatus, inputsPerRound),
		}
		for _, pix := range j.sc.pix {
			if cluster {
				// Cluster jobs carry the scene spec; the worker generates
				// the same pixels. Uploads are left out: a lease can race
				// the spooling of input.pgm and fail the job.
				j.pix = append(j.pix, pix)
				continue
			}
			var buf bytes.Buffer
			im := &imaging.Image{W: j.sc.w, H: j.sc.h, Pix: pix}
			if err := im.WritePGM(&buf); err != nil {
				return nil, err
			}
			dec, err := imaging.ReadPGM(bytes.NewReader(buf.Bytes()))
			if err != nil {
				return nil, err
			}
			j.pgm = append(j.pgm, buf.Bytes())
			j.pix = append(j.pix, dec.Pix)
		}
		d, err := startDaemon(cluster, filepath.Join(dir, fmt.Sprintf("spool-%d", spoolSeq.Add(1))), nproc(), tr)
		if err != nil {
			return nil, err
		}
		j.d = d
		cl, tp, err := newClient(d.url)
		if err != nil {
			d.close()
			return nil, err
		}
		j.cl, j.http = cl, tp
		return j, nil
	}
}

func (j *jobsRun) optionsSpec(k int) api.OptionsSpec {
	return api.OptionsSpec{Strategy: "sequential", MeanRadius: jobRadius, Iterations: jobIters,
		Workers: 1, Seed: j.sc.seeds[k]}
}

// op submits one job and waits on its event stream for done.
func (j *jobsRun) op(ctx context.Context, k int) error {
	id, start := j.tr.begin()
	ctx = withParent(ctx, id)
	t0 := time.Now()
	var st *api.JobStatus
	var err error
	sid, sstart := j.tr.begin()
	if j.cluster {
		sp := j.sc.specs[k]
		st, err = j.cl.Submit(ctx, api.JobSpec{
			Scene:   &api.SceneSpec{W: sp.W, H: sp.H, Count: sp.Count, MeanRadius: sp.MeanRadius, Noise: sp.Noise, Seed: sp.Seed},
			Options: j.optionsSpec(k),
		})
	} else {
		st, err = j.cl.SubmitImage(ctx, j.pgm[k], j.optionsSpec(k))
	}
	job := ""
	if err == nil {
		job = j.d.tag + st.ID
	}
	j.tr.end(sid, sstart, id, "client.Submit", job, 0)
	if err != nil {
		j.tr.end(id, start, 0, "client.job", "", 0)
		return fmt.Errorf("submit: %w", err)
	}
	jt := jobTiming{firstProgress: -1}
	var final *api.JobStatus
	j.tr.do("client.Wait", job, id, 0, func() {
		final, err = j.cl.Wait(ctx, st.ID, func(ev *client.Event) {
			jt.events++
			if ev.Name == "progress" && jt.firstProgress < 0 {
				jt.firstProgress = time.Since(t0)
			}
		})
	})
	jt.latency = time.Since(t0)
	j.tr.end(id, start, 0, "client.job", job, 0)
	if err != nil {
		return fmt.Errorf("job %s: %w", st.ID, err)
	}
	if final.State != api.StateDone {
		return fmt.Errorf("job %s ended %s: %s", st.ID, final.State, final.Error)
	}
	jt.status = final
	j.mu.Lock()
	j.done[k] = append(j.done[k], final)
	j.timings = append(j.timings, jt)
	j.mu.Unlock()
	return nil
}

// verify checks every job's result against the ground truth and against
// a direct parmcmc.Detect on the same pixels, options and seed.
func (j *jobsRun) verify() error {
	for k, sts := range j.done {
		if len(sts) == 0 {
			continue
		}
		o := j.optionsSpec(k)
		ref, err := parmcmc.Detect(j.pix[k], j.sc.w, j.sc.h, parmcmc.Options{
			Strategy: parmcmc.Sequential, MeanRadius: o.MeanRadius, Iterations: o.Iterations,
			Workers: o.Workers, Seed: o.Seed,
		})
		if err != nil {
			return err
		}
		for _, st := range sts {
			if err := sameServiceResult(st.Result, ref); err != nil {
				return fmt.Errorf("job %s: %w", st.ID, err)
			}
			found, err := viewEllipses(st.Result)
			if err != nil {
				return fmt.Errorf("job %s: %w", st.ID, err)
			}
			if err := checkF1(found, j.sc.truth[k], j.sc.meanRadius); err != nil {
				return fmt.Errorf("job %s: %w", st.ID, err)
			}
		}
	}
	return nil
}

func (j *jobsRun) close() error {
	err := j.d.close()
	j.http.CloseIdleConnections()
	return err
}

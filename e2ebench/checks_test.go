package main

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/pkg/api"
	"repro/pkg/parmcmc"
)

const testRadius = 7

// testDetect runs a small detection with a fixed seed.
func testDetect(t *testing.T, iters int) (*parmcmc.Result, []parmcmc.Ellipse) {
	t.Helper()
	pix, truth := parmcmc.GenerateSceneShapes(parmcmc.SceneSpec{W: 96, H: 96, Count: 6, MeanRadius: testRadius, Noise: 0.05, Seed: 3})
	res, err := parmcmc.Detect(pix, 96, 96, parmcmc.Options{Strategy: parmcmc.Sequential, MeanRadius: testRadius, Iterations: iters, Workers: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return res, truth
}

func TestCheckF1RejectsShiftedDetections(t *testing.T) {
	res, truth := testDetect(t, 30000)
	if err := checkF1(res.Ellipses, truth, testRadius); err != nil {
		t.Fatalf("correct detections rejected: %v", err)
	}
	shifted := append([]parmcmc.Ellipse(nil), res.Ellipses...)
	for i := range shifted {
		shifted[i].X += 2 * testRadius
	}
	if err := checkF1(shifted, truth, testRadius); err == nil {
		t.Fatal("detections shifted by two radii passed the F1 check")
	}
}

func TestSameChainRejectsWrongAnswers(t *testing.T) {
	ref, _ := testDetect(t, 30000)
	again, _ := testDetect(t, 30000)
	if err := sameChain(again, ref); err != nil {
		t.Fatalf("two runs of the same chain differ: %v", err)
	}
	truncated, _ := testDetect(t, 29000)
	if err := sameChain(truncated, ref); err == nil {
		t.Fatal("a truncated chain passed")
	}
	moved := *ref
	moved.Ellipses = append([]parmcmc.Ellipse(nil), ref.Ellipses...)
	moved.Ellipses[0].X++
	if err := sameChain(&moved, ref); err == nil {
		t.Fatal("a result with one circle moved passed")
	}
	dropped := *ref
	dropped.Ellipses = ref.Ellipses[1:]
	if err := sameChain(&dropped, ref); err == nil {
		t.Fatal("a result with one circle missing passed")
	}
}

func TestSameServiceResultRejectsOneCircle(t *testing.T) {
	ref, _ := testDetect(t, 30000)
	v := api.NewResultView(ref)
	v.ElapsedSeconds += 3 // wall clock is not part of the result
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameServiceResult(raw, ref); err != nil {
		t.Fatalf("the library's own result rejected: %v", err)
	}
	v.Circles = append([]api.CircleView(nil), v.Circles...)
	v.Circles[len(v.Circles)-1].R += 0.5
	raw, err = json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameServiceResult(raw, ref); err == nil {
		t.Fatal("a result that differs by one circle passed")
	}
}

// countingInstance fails every third operation.
type countingInstance struct {
	mu  sync.Mutex
	ops int
}

func (c *countingInstance) op(context.Context, int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ops++
	if c.ops%3 == 0 {
		return errors.New("failed")
	}
	return nil
}
func (c *countingInstance) verify() error { return nil }
func (c *countingInstance) close() error  { return nil }

func TestMeasureRunsWholeRounds(t *testing.T) {
	res := measure(context.Background(), &countingInstance{}, 3, time.Millisecond, 0)
	if res.attempted == 0 || res.attempted%inputsPerRound != 0 {
		t.Fatalf("attempted %d, want a positive multiple of %d", res.attempted, inputsPerRound)
	}
	if res.failed+len(res.lat) != res.attempted || res.failed != res.attempted/3 {
		t.Fatalf("attempted %d, failed %d, completed %d", res.attempted, res.failed, len(res.lat))
	}
	res = measure(context.Background(), &countingInstance{}, 2, 0, 2)
	if res.attempted != 2*2*inputsPerRound {
		t.Fatalf("attempted %d, want %d", res.attempted, 2*2*inputsPerRound)
	}
}

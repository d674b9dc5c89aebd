package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"repro/pkg/api"
	"repro/pkg/parmcmc"
)

// Every detection must recover the generator's ground truth at least this
// well. A detection counts as a match when its centre lies within
// matchFrac mean radii of a true artifact's centre.
const (
	f1Floor   = 0.85
	matchFrac = 0.5
)

// checkF1 compares detections with the scene generator's ground truth.
func checkF1(found, truth []parmcmc.Ellipse, meanRadius float64) error {
	_, _, f1 := parmcmc.MatchScoreShapes(found, truth, matchFrac*meanRadius)
	if f1 < f1Floor {
		return fmt.Errorf("F1 %.3f below the floor %.2f (%d found, %d true)", f1, f1Floor, len(found), len(truth))
	}
	return nil
}

// sameChain reports where two results of the same chain differ, or nil.
// Wall-clock fields and the speculation width are not part of the chain.
func sameChain(got, want *parmcmc.Result) error {
	if got.Iterations != want.Iterations {
		return fmt.Errorf("iterations %d, want %d", got.Iterations, want.Iterations)
	}
	if len(got.Ellipses) != len(want.Ellipses) {
		return fmt.Errorf("%d detections, want %d", len(got.Ellipses), len(want.Ellipses))
	}
	for i := range got.Ellipses {
		if got.Ellipses[i] != want.Ellipses[i] {
			return fmt.Errorf("detection %d is %+v, want %+v", i, got.Ellipses[i], want.Ellipses[i])
		}
	}
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"log-posterior", got.LogPost, want.LogPost},
		{"accept rate", got.AcceptRate, want.AcceptRate},
		{"global reject rate", got.GlobalRejectRate, want.GlobalRejectRate},
		{"local reject rate", got.LocalRejectRate, want.LocalRejectRate},
	} {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			return fmt.Errorf("%s %v, want %v", f.name, f.got, f.want)
		}
	}
	if got.Barriers != want.Barriers {
		return fmt.Errorf("barriers %d, want %d", got.Barriers, want.Barriers)
	}
	return nil
}

// sameServiceResult compares a job's result, as the service returned it,
// with a direct library run on the same pixels, options and seed. Only
// the wall-clock fields may differ.
func sameServiceResult(raw json.RawMessage, ref *parmcmc.Result) error {
	want, err := json.Marshal(api.NewResultView(ref))
	if err != nil {
		return err
	}
	got, gotJSON, err := normalizedView(raw)
	if err != nil {
		return fmt.Errorf("decoding service result: %w", err)
	}
	lib, libJSON, err := normalizedView(want)
	if err != nil {
		return err
	}
	if bytes.Equal(gotJSON, libJSON) {
		return nil
	}
	if len(got.Circles) != len(lib.Circles) {
		return fmt.Errorf("service returned %d detections, library %d", len(got.Circles), len(lib.Circles))
	}
	for i := range got.Circles {
		if got.Circles[i] != lib.Circles[i] {
			return fmt.Errorf("detection %d: service %+v, library %+v", i, got.Circles[i], lib.Circles[i])
		}
	}
	return fmt.Errorf("service result differs from the library's: %s vs %s", gotJSON, libJSON)
}

// normalizedView decodes a result, zeroes its wall-clock fields and
// re-encodes it.
func normalizedView(raw []byte) (api.ResultView, []byte, error) {
	var v api.ResultView
	if err := json.Unmarshal(raw, &v); err != nil {
		return v, nil, err
	}
	v.ElapsedSeconds = 0
	for i := range v.Regions {
		v.Regions[i].Seconds = 0
	}
	b, err := json.Marshal(v)
	return v, b, err
}

// viewEllipses returns a service result's detections as ellipses.
func viewEllipses(raw json.RawMessage) ([]parmcmc.Ellipse, error) {
	var v api.ResultView
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, err
	}
	out := make([]parmcmc.Ellipse, len(v.Circles))
	for i, c := range v.Circles {
		out[i] = parmcmc.Ellipse{X: c.X, Y: c.Y, Rx: c.R, Ry: c.R}
	}
	return out, nil
}

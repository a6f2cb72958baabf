package charlib

import (
	"context"
	"fmt"
	"math"

	"sstiming/internal/cells"
	"sstiming/internal/core"
	"sstiming/internal/engine"
	"sstiming/internal/fit"
	"sstiming/internal/spice"
)

// This file characterises the simultaneous to-non-controlling surfaces (the
// paper's Section 3.6 future work, implemented in core/noncontrolling.go):
// both inputs of a pair transition towards the non-controlling value with a
// swept skew, and the gate delay — measured from the LATEST arrival —
// exhibits a Λ-shaped peak at zero skew.

// measureNCPair measures (and memoises) the two-input to-non-controlling
// response: pin x switching at the reference arrival, pin y at skew later.
// The returned delay is relative to the LATEST switching input arrival.
func (ch *characterizer) measureNCPair(x, y, txIdx, tyIdx int, skew float64) (measurement, error) {
	dps := int(math.Round(skew / 1e-12))
	key := pairKey{x: x, y: y, tx: txIdx, ty: tyIdx, dps: dps}
	if x > y {
		key = pairKey{x: y, y: x, tx: tyIdx, ty: txIdx, dps: -dps}
	}
	return ch.memoNCPair.get(key, func() (measurement, error) { return ch.simulateNCPair(key) })
}

// simulateNCPair simulates the two-input to-non-controlling response of a
// canonical pair key.
func (ch *characterizer) simulateNCPair(key pairKey) (measurement, error) {
	axc := stimulusArrival
	ayc := stimulusArrival + float64(key.dps)*1e-12
	txc := ch.opts.Grid[key.tx]
	tyc := ch.opts.Grid[key.ty]
	minStart := math.Min(axc-txc/0.8/2, ayc-tyc/0.8/2)
	if minStart < 0.1e-9 {
		shift := 0.1e-9 - minStart
		axc += shift
		ayc += shift
	}
	drives := map[int]cells.Drive{
		key.x: ch.nonCtrlDrive(axc, txc),
		key.y: ch.nonCtrlDrive(ayc, tyc),
	}
	latest := math.Max(axc, ayc)
	maxTT := math.Max(txc, tyc)
	// For the to-non-controlling response the remaining inputs must hold
	// the NON-controlling value so the output switches when the pair
	// completes; simulate() holds them there by default — but its delay
	// is measured from the earliest arrival. Re-derive against latest.
	outRising := !ch.cfg.OutputRisesOnControlling()
	return ch.simulateNC(drives, outRising, latest, maxTT)
}

// simulateNC runs a to-non-controlling testbench with the switching pins'
// drives given and every other pin steady at the non-controlling value; the
// measured delay is relative to the LATEST switching arrival.
func (ch *characterizer) simulateNC(drives map[int]cells.Drive, outRising bool, latest, maxTT float64) (measurement, error) {
	n := ch.numInputs()
	all := make([]cells.Drive, n)
	for i := 0; i < n; i++ {
		if d, ok := drives[i]; ok {
			all[i] = d
		} else {
			all[i] = ch.steadyNonCtrl()
		}
	}
	tr, err := ch.runSim(ch.cfg, all, outRising, latest, maxTT)
	if err != nil {
		return measurement{}, err
	}
	return measurement{delay: tr.Arrival - latest, trans: tr.TransTime}, nil
}

// measureSingleNC measures (and memoises) the single-input
// to-non-controlling response at a grid point.
func (ch *characterizer) measureSingleNC(pin, gridIdx int) (measurement, error) {
	return ch.singleNC.get([2]int{pin, gridIdx}, func() (measurement, error) {
		tt := ch.opts.Grid[gridIdx]
		outRising := !ch.cfg.OutputRisesOnControlling()
		return ch.simulateNC(
			map[int]cells.Drive{pin: ch.nonCtrlDrive(stimulusArrival, tt)},
			outRising, stimulusArrival, tt)
	})
}

// fitNCPair characterises the Λ-shaped to-non-controlling surfaces of
// ordered pair (x, y): the peak delay/transition at zero skew, and the skew
// threshold beyond which the EARLIER input stops mattering (the positive-
// side arm anchors at the later input's pin-to-pin delay).
func (ch *characterizer) fitNCPair(x, y int) (core.PairEntry, error) {
	grid := ch.opts.Grid

	// Grid cells fan out on the engine pool exactly like fitPair's; rows
	// land by index for a scheduling-independent fit.
	keyName := fmt.Sprintf("ncpair%d:%d", x, y)
	type ncRow struct {
		d0, t0, s float64
	}
	rows := make([]ncRow, len(grid)*len(grid))
	ch.notePoints(len(rows))
	// Grid cells that never converge are interpolated from neighbours after
	// the fan-out, mirroring fitPair's graceful degradation.
	failed := make([]bool, len(rows))
	rowErrs := make([]error, len(rows))
	err := engine.Run(ch.ctx, ch.opts.Jobs, len(rows), func(_ context.Context, i int) error {
		txIdx, tyIdx := i/len(grid), i%len(grid)
		row, err := func() (ncRow, error) {
			dy, err := ch.measureSingleNC(y, tyIdx)
			if err != nil {
				return ncRow{}, err
			}
			m0, err := ch.measureNCPair(x, y, txIdx, tyIdx, 0)
			if err != nil {
				return ncRow{}, err
			}
			s, err := ch.findNCSkewThreshold(x, y, txIdx, tyIdx, dy.delay)
			if err != nil {
				return ncRow{}, err
			}
			return ncRow{d0: m0.delay, t0: m0.trans, s: s}, nil
		}()
		if err != nil {
			if !spice.IsRecoverable(err) {
				return err
			}
			failed[i] = true
			rowErrs[i] = err
			return nil
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return core.PairEntry{}, err
	}

	var txsNs, tysNs []float64
	var d0Ns, t0Ns, sNs []float64
	for i, row := range rows {
		txIdx, tyIdx := i/len(grid), i%len(grid)
		txsNs = append(txsNs, grid[txIdx]/1e-9)
		tysNs = append(tysNs, grid[tyIdx]/1e-9)
		d0Ns = append(d0Ns, row.d0/1e-9)
		t0Ns = append(t0Ns, row.t0/1e-9)
		sNs = append(sNs, row.s/1e-9)
	}
	if err := interpolateGrid(len(grid), failed, d0Ns, t0Ns, sNs); err != nil {
		return core.PairEntry{}, fmt.Errorf("%s: %w", keyName, err)
	}
	for i, f := range failed {
		if f {
			ch.noteDegraded(keyName, grid[i/len(grid)], grid[i%len(grid)], rowErrs[i])
		}
	}

	fitCross := func(key string, ys []float64) (core.Cross, error) {
		if ch.opts.PaperExactD0 {
			k, st, err := fit.FitCrossPaper(txsNs, tysNs, ys)
			if err != nil {
				return core.Cross{}, err
			}
			ch.record(key, st)
			return core.Cross{Kxy: k[0], Kx: k[1], Ky: k[2], K1: k[3]}, nil
		}
		k, st, err := fit.FitCross(txsNs, tysNs, ys)
		if err != nil {
			return core.Cross{}, err
		}
		ch.record(key, st)
		return core.Cross{
			Kxy: k[0], Kx: k[1], Ky: k[2], K1: k[3],
			Kxx: k[4], Kyy: k[5], Kxxy: k[6], Kxyy: k[7],
		}, nil
	}
	d0, err := fitCross(keyName+"/D0", d0Ns)
	if err != nil {
		return core.PairEntry{}, fmt.Errorf("NC D0 fit: %w", err)
	}
	t0, err := fitCross(keyName+"/T0", t0Ns)
	if err != nil {
		return core.PairEntry{}, fmt.Errorf("NC T0 fit: %w", err)
	}
	ks, sSt, err := fit.FitQuad2(txsNs, tysNs, sNs)
	if err != nil {
		return core.PairEntry{}, fmt.Errorf("NC SR fit: %w", err)
	}
	ch.record(keyName+"/SR", sSt)

	return core.PairEntry{
		X: x,
		Y: y,
		Timing: core.PairTiming{
			D0: d0,
			T0: t0,
			SX: core.Quad2{Kxx: ks[0], Kyy: ks[1], Kxy: ks[2], Kx: ks[3], Ky: ks[4], K1: ks[5]},
		},
	}, nil
}

// findNCSkewThreshold locates the skew beyond which the earlier input x no
// longer slows the response to the later input y: the smallest δ = Ay−Ax
// with delay(δ) within tolerance of the single-input delay of y.
func (ch *characterizer) findNCSkewThreshold(x, y, txIdx, tyIdx int, dySingle float64) (float64, error) {
	eps := math.Max(0.04*math.Abs(dySingle), 3e-12)

	probe := func(skew float64) (bool, error) {
		m, err := ch.measureNCPair(x, y, txIdx, tyIdx, skew)
		if err != nil {
			return false, err
		}
		return math.Abs(m.delay-dySingle) <= eps, nil
	}

	hi := 0.25e-9
	const hiLimit = 8e-9
	for {
		done, err := probe(hi)
		if err != nil {
			return 0, err
		}
		if done {
			break
		}
		hi *= 2
		if hi > hiLimit {
			return hiLimit, nil
		}
	}
	lo := 0.0
	for hi-lo > ch.opts.SkewTol {
		mid := (lo + hi) / 2
		done, err := probe(mid)
		if err != nil {
			return 0, err
		}
		if done {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

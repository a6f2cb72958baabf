package spice

import (
	"math"
	"testing"

	"sstiming/internal/device"
	"sstiming/internal/waveform"
)

func TestResistorDividerDC(t *testing.T) {
	c := NewCircuit()
	vin := c.Node("vin")
	mid := c.Node("mid")
	c.AddDC(vin, 2.0)
	c.AddRes(vin, mid, 1000)
	c.AddRes(mid, 0, 1000)

	res, err := c.Transient(TransientOpts{TStop: 1e-9, TStep: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Wave("mid").Final()
	if math.Abs(got-1.0) > 1e-6 {
		t.Errorf("divider mid = %g, want 1.0", got)
	}
}

func TestRCStepResponse(t *testing.T) {
	// R = 1k, C = 1pF: tau = 1ns. Drive a step and check v(tau) ~ 63.2%.
	c := NewCircuit()
	vin := c.Node("vin")
	out := c.Node("out")
	c.AddVSource(vin, 0, func(tt float64) float64 {
		if tt <= 0 {
			return 0
		}
		return 1.0
	})
	c.AddRes(vin, out, 1000)
	c.AddCap(out, 0, 1e-12)

	res, err := c.Transient(TransientOpts{TStop: 10e-9, TStep: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	w := res.Wave("out")
	vTau := w.At(1e-9)
	want := 1 - math.Exp(-1)
	if math.Abs(vTau-want) > 0.02 {
		t.Errorf("v(tau) = %g, want ~%g", vTau, want)
	}
	if f := w.Final(); math.Abs(f-1.0) > 1e-3 {
		t.Errorf("final = %g, want ~1.0", f)
	}
}

func TestNMOSDCCharacteristic(t *testing.T) {
	tech := device.Default05um()
	g := tech.MinGeom(device.NMOS)
	p := &tech.NMOS

	// Cutoff.
	ids, _, _ := p.Ids(g, 0.3, 1.0)
	if math.Abs(ids) > 1e-9 {
		t.Errorf("cutoff current = %g, want ~0", ids)
	}
	// Saturation: Ids grows quadratically with overdrive.
	i1, _, _ := p.Ids(g, p.VT0+0.5, 3.3)
	i2, _, _ := p.Ids(g, p.VT0+1.0, 3.3)
	ratio := i2 / i1
	if ratio < 3.5 || ratio > 4.6 {
		t.Errorf("saturation current ratio = %g, want ~4 (square law)", ratio)
	}
	// Triode: current increases with Vds below saturation.
	ia, _, _ := p.Ids(g, p.VT0+1.0, 0.2)
	ib, _, _ := p.Ids(g, p.VT0+1.0, 0.5)
	if ib <= ia {
		t.Errorf("triode current not increasing: %g then %g", ia, ib)
	}
}

func TestMOSSymmetryUnderSwap(t *testing.T) {
	// The device is symmetric: I(vg, vd, vs) = -I with drain/source
	// exchanged. Check the model honours this.
	tech := device.Default05um()
	g := tech.MinGeom(device.NMOS)
	p := &tech.NMOS

	// Original: vg=2, vd=1, vs=0 -> vgs=2, vds=1.
	iFwd, _, _ := p.Ids(g, 2.0, 1.0)
	// Swapped terminals: vg=2, vd=0, vs=1 -> vgs=1, vds=-1.
	iRev, _, _ := p.Ids(g, 1.0, -1.0)
	if math.Abs(iFwd+iRev) > 1e-9*math.Abs(iFwd) {
		t.Errorf("swap symmetry violated: %g vs %g", iFwd, iRev)
	}
}

func TestPMOSDerivativesMatchFiniteDifference(t *testing.T) {
	tech := device.Default05um()
	for _, typ := range []device.MOSType{device.NMOS, device.PMOS} {
		p := tech.Params(typ)
		g := tech.MinGeom(typ)
		pts := []struct{ vgs, vds float64 }{
			{1.5, 2.0}, {1.5, 0.3}, {2.5, -1.0}, {0.2, 1.0},
			{-1.5, -2.0}, {-1.5, -0.3}, {-2.5, 1.0}, {-0.2, -1.0},
		}
		const h = 1e-7
		for _, pt := range pts {
			_, gm, gds := p.Ids(g, pt.vgs, pt.vds)
			ip, _, _ := p.Ids(g, pt.vgs+h, pt.vds)
			im, _, _ := p.Ids(g, pt.vgs-h, pt.vds)
			gmFD := (ip - im) / (2 * h)
			ip, _, _ = p.Ids(g, pt.vgs, pt.vds+h)
			im, _, _ = p.Ids(g, pt.vgs, pt.vds-h)
			gdsFD := (ip - im) / (2 * h)
			scale := math.Max(1e-6, math.Abs(gmFD))
			if math.Abs(gm-gmFD) > 1e-3*scale {
				t.Errorf("%v vgs=%g vds=%g: gm=%g fd=%g", typ, pt.vgs, pt.vds, gm, gmFD)
			}
			scale = math.Max(1e-6, math.Abs(gdsFD))
			if math.Abs(gds-gdsFD) > 1e-3*scale {
				t.Errorf("%v vgs=%g vds=%g: gds=%g fd=%g", typ, pt.vgs, pt.vds, gds, gdsFD)
			}
		}
	}
}

func TestInverterTransfersAndDelay(t *testing.T) {
	tech := device.Default05um()
	c := NewCircuit()
	vdd := c.Node("vdd")
	in := c.Node("in")
	out := c.Node("out")
	c.AddDC(vdd, tech.Vdd)
	c.AddVSource(in, 0, waveform.Ramp(0, tech.Vdd, 1e-9, 0.2e-9))
	c.AddMOSFET(out, in, vdd, &tech.PMOS, tech.MinGeom(device.PMOS))
	c.AddMOSFET(out, in, 0, &tech.NMOS, tech.MinGeom(device.NMOS))
	c.AddCap(out, 0, 10e-15)

	res, err := c.Transient(TransientOpts{TStop: 4e-9, TStep: 2e-12, Record: []string{"out"}})
	if err != nil {
		t.Fatal(err)
	}
	w := res.Wave("out")
	if v0 := w.At(0); math.Abs(v0-tech.Vdd) > 0.05 {
		t.Errorf("initial output = %g, want ~Vdd", v0)
	}
	tr, err := w.MeasureTransition(tech.Vdd, false)
	if err != nil {
		t.Fatal(err)
	}
	delay := tr.Arrival - 1e-9
	// Sanity: a min-size inverter driving 10 fF in 0.5 um should fall
	// within tens to hundreds of picoseconds.
	if delay < 10e-12 || delay > 1e-9 {
		t.Errorf("inverter fall delay = %g s, outside sane range", delay)
	}
	if f := w.Final(); f > 0.05 {
		t.Errorf("final output = %g, want ~0", f)
	}
}

func TestRecordUnknownNode(t *testing.T) {
	c := NewCircuit()
	n := c.Node("a")
	c.AddDC(n, 1)
	if _, err := c.Transient(TransientOpts{TStop: 1e-10, Record: []string{"nope"}}); err == nil {
		t.Error("expected error recording unknown node")
	}
}

func TestTransientRejectsBadTStop(t *testing.T) {
	c := NewCircuit()
	if _, err := c.Transient(TransientOpts{TStop: 0}); err == nil {
		t.Error("expected error for TStop = 0")
	}
}

// TestTransientAllocs pins that a transient allocates a fixed set of
// buffers up front: recorded waveforms are presized, and the Newton loop
// reuses the solver's storage, so allocations do not grow with the step
// count.
func TestTransientAllocs(t *testing.T) {
	tech := device.Default05um()
	c := NewCircuit()
	vdd := c.Node("vdd")
	in := c.Node("in")
	out := c.Node("out")
	c.AddDC(vdd, tech.Vdd)
	c.AddVSource(in, 0, waveform.Ramp(0, tech.Vdd, 0.1e-9, 0.1e-9))
	c.AddMOSFET(out, in, vdd, &tech.PMOS, tech.MinGeom(device.PMOS))
	c.AddMOSFET(out, in, 0, &tech.NMOS, tech.MinGeom(device.NMOS))
	c.AddCap(out, 0, 10e-15)
	allocs := func(steps int) float64 {
		opts := TransientOpts{TStop: float64(steps) * 2e-12, TStep: 2e-12, Method: Trapezoidal}
		return testing.AllocsPerRun(5, func() {
			if _, err := c.Transient(opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(100), allocs(4000)
	if long > short {
		t.Errorf("a 4000-step transient allocates %v times, a 100-step one %v", long, short)
	}
}

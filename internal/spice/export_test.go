package spice

// StampedNewton returns two solves of one stamped Newton matrix of c, for
// BenchmarkSolve: the first Newton iteration of time t at step h, with the
// MOSFETs linearised at the state a transient from the DC operating point
// reaches at t. plan solves it along the pivot plan of its own pivot
// order; dense solves it with the frozen dense LU of reference_test.go.
func StampedNewton(c *Circuit, method Method, t, h float64) (plan, dense func() error, err error) {
	res, err := c.Transient(TransientOpts{TStop: t, TStep: h, Method: method})
	if err != nil {
		return nil, nil, err
	}
	nn, nv := len(c.nodeNames), len(c.vsrcs)
	dim := nn - 1 + nv
	volt := make([]float64, nn)
	for i, name := range c.nodeNames {
		volt[i] = res.Wave(name).Final()
	}
	sc := &solveCtx{s: newSolver(dim, c.pattern(dim)), method: method, gmin: gmin}
	c.stampTables(sc)
	c.stampLinear(sc, h)
	c.stampRHS(sc, volt, make([]float64, len(c.caps)), t, h)
	c.stampNewton(sc, volt)
	s := sc.s
	a, b := append([]float64(nil), s.a...), append([]float64(nil), s.b...)
	ref := refNewSolver(dim)
	plan = func() error {
		copy(s.a, a)
		copy(s.b, b)
		_, err := s.solve()
		return err
	}
	dense = func() error {
		copy(ref.a, a)
		copy(ref.b, b)
		_, err := ref.solve()
		return err
	}
	// The first solve is dense and leaves the plan of this matrix.
	return plan, dense, plan()
}

// Dim returns the number of MNA unknowns of c.
func (c *Circuit) Dim() int { return len(c.nodeNames) - 1 + len(c.vsrcs) }

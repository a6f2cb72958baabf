package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"

	"sstiming/internal/engine"
)

// expected holds the reference digests kept in perfbench/expected/. They
// are recomputed with --write-expected; a change that alters any window,
// required time, worst path, ATPG outcome or published library byte fails
// the benchmark's output checks until they are regenerated on purpose.
type expected struct {
	// STA maps circuit name to the digest of its windows, required times,
	// violations and worst path.
	STA map[string]string `json:"sta,omitempty"`
	// ATPG maps "circuit/faultseed" to the digest of the campaign outcome.
	ATPG map[string]string `json:"atpg,omitempty"`
	// Library is the SHA-256 of the library a single-process campaign
	// publishes.
	Library string `json:"library_sha256,omitempty"`
	// SolverPoints and Cells are the work that campaign does: the solver
	// points and cells it characterises. A networked campaign must do
	// exactly the same work; redone shards show as a mismatch.
	SolverPoints int64 `json:"solver_points,omitempty"`
	Cells        int64 `json:"cells,omitempty"`
}

func expectedPath(name string) string {
	return filepath.Join("perfbench", "expected", name)
}

// loadExpected reads one expected-digest file. With wrong set every digest
// is corrupted, so every check against it must fail.
func loadExpected(name string, wrong bool) (*expected, error) {
	raw, err := os.ReadFile(expectedPath(name))
	if err != nil {
		return nil, err
	}
	var e expected
	if err := json.Unmarshal(raw, &e); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if wrong {
		for k, v := range e.STA {
			e.STA[k] = corrupt(v)
		}
		for k, v := range e.ATPG {
			e.ATPG[k] = corrupt(v)
		}
		e.Library = corrupt(e.Library)
	}
	return &e, nil
}

// corrupt flips the first hex digit of a digest.
func corrupt(digest string) string {
	if digest == "" {
		return "0"
	}
	b := []byte(digest)
	if b[0] == '0' {
		b[0] = '1'
	} else {
		b[0] = '0'
	}
	return string(b)
}

func saveExpected(name string, e *expected) error {
	raw, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(expectedPath(name), append(raw, '\n'), 0o644)
}

// digester hashes typed values in a fixed binary layout.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) f(x float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
	d.h.Write(b[:])
}

func (d *digester) i(x int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(x))
	d.h.Write(b[:])
}

func (d *digester) s(x string) {
	d.i(int64(len(x)))
	d.h.Write([]byte(x))
}

func (d *digester) b(x bool) {
	if x {
		d.i(1)
	} else {
		d.i(0)
	}
}

func (d *digester) hex() string { return hex.EncodeToString(d.h.Sum(nil)) }

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// writeExpectedDigests recomputes every expected digest from the reference
// paths: serial (Jobs 1) analyses for STA, and for the library a
// single-process campaign at the networked workers' width (Jobs 1), whose
// solver point count is deterministic.
func writeExpectedDigests() error {
	off, err := computeOfflineExpected()
	if err != nil {
		return err
	}
	if err := saveExpected("offline.json", off); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %d STA and %d ATPG digests\n", len(off.STA), len(off.ATPG))
	dir, err := os.MkdirTemp(".bench_build", "expected-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	met := engine.NewMetrics()
	sum, _, err := singleProcessCampaign(dir, 1, met)
	if err != nil {
		return err
	}
	char := &expected{Library: sum, SolverPoints: met.Get(engine.CharJobs), Cells: met.Get(engine.CharCells)}
	if err := saveExpected("characterize.json", char); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote library digest %s (%d solver points, %d cells)\n",
		sum, char.SolverPoints, char.Cells)
	return nil
}

package engine

import (
	"context"
	"testing"
)

// BenchmarkEngineRunTiny measures the fixed cost of one fan-out: a few
// trivial jobs at pool width 2, the shape of a narrow logic level.
func BenchmarkEngineRunTiny(b *testing.B) {
	var sink [8]int
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Run(ctx, 2, len(sink), func(_ context.Context, k int) error {
			sink[k]++
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}

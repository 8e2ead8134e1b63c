package tpch

import (
	"testing"

	"apuama/internal/costmodel"
	"apuama/internal/engine"
)

// BenchmarkLoadTPCH is the set-up every cluster pays before its first
// query: the SF 0.02 database generated and loaded, with its clustered and
// foreign-key indexes, into a fresh engine.Database.
func BenchmarkLoadTPCH(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db := engine.NewDatabase(costmodel.TestConfig())
		if _, err := (Generator{SF: 0.02, Seed: 1}).Load(db); err != nil {
			b.Fatal(err)
		}
	}
}

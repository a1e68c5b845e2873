package agg

import (
	"testing"

	"repro/internal/engine"
)

func benchValues(n int) []engine.Value {
	vals := make([]engine.Value, n)
	for i := range vals {
		vals[i] = engine.NewFloat(float64(i%1000) / 7)
	}
	return vals
}

func BenchmarkAdd(b *testing.B) {
	vals := benchValues(1024)
	for _, name := range Names() {
		name := name
		b.Run(name, func(b *testing.B) {
			f, _ := New(name)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Add(vals[i%len(vals)])
			}
		})
	}
}

// BenchmarkResultWithout measures the leave-one-out primitive that the
// influence analysis calls once per lineage tuple.
func BenchmarkResultWithout(b *testing.B) {
	vals := benchValues(4096)
	for _, name := range Names() {
		name := name
		b.Run(name, func(b *testing.B) {
			f, _ := New(name)
			for _, v := range vals {
				f.Add(v)
			}
			floats := make([]float64, len(vals))
			for i, v := range vals {
				floats[i] = v.Float()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.ResultWithoutFloats(floats[i%len(vals) : i%len(vals)+1])
			}
		})
	}
}

func BenchmarkResultWithoutSet(b *testing.B) {
	vals := benchValues(4096)
	removed := vals[:64]
	f, _ := New("stddev")
	for _, v := range vals {
		f.Add(v)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.ResultWithoutSet(removed)
	}
}

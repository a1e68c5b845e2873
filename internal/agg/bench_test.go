package agg

import (
	"slices"
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

// BenchmarkAddFloats measures the scan's fold: one AddFloats call over a
// 1,024-row block with a NULL in every 64 and every other row selected.
func BenchmarkAddFloats(b *testing.B) {
	vals, null := make([]float64, 1024), make([]uint64, 1024/64)
	var sel []int32
	for i := range vals {
		vals[i] = float64(i%1000) / 7
		if i%64 == 5 {
			null[i/64] |= 1 << (i % 64)
		}
		if i%2 == 1 {
			sel = append(sel, int32(i))
		}
	}
	for _, name := range Names() {
		b.Run(name, func(b *testing.B) {
			f, _ := New(name)
			b.SetBytes(int64(len(sel) * 8))
			for i := 0; i < b.N; i++ {
				if i%64 == 0 { // keep median's slice from growing without bound
					f = f.Clone()
				}
				f.AddFloats(vals, null, sel)
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
				f.ResultWithoutFloats(floats[i%len(vals):i%len(vals)+1], slices.Values(floats))
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
		f.ResultWithoutSet(removed, nil)
	}
}

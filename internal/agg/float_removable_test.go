package agg

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/engine"
)

// TestResultWithoutFloatsParity checks the unboxed removal path agrees
// with the boxed ResultWithoutSet for every shipped aggregate over
// random multisets and removal subsets.
func TestResultWithoutFloatsParity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, name := range Names() {
		for trial := 0; trial < 100; trial++ {
			f, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			n := 1 + rng.Intn(30)
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = float64(rng.Intn(10)) / 2 // duplicates likely
				f.Add(engine.NewFloat(vals[i]))
			}
			var rmBoxed []engine.Value
			var rmFloat []float64
			for _, v := range vals {
				if rng.Intn(3) == 0 {
					rmBoxed = append(rmBoxed, engine.NewFloat(v))
					rmFloat = append(rmFloat, v)
				}
			}
			want := f.ResultWithoutSet(rmBoxed)
			got, gotOK := f.ResultWithoutFloats(rmFloat)
			if want.IsNull() != !gotOK {
				t.Fatalf("%s trial %d: null mismatch (boxed null=%v, float ok=%v)", name, trial, want.IsNull(), gotOK)
			}
			if !want.IsNull() && !closeEnough(want.Float(), got) {
				t.Fatalf("%s trial %d: boxed=%g float=%g", name, trial, want.Float(), got)
			}
		}
	}
}

// TestResultWithoutFloatsSingleton mirrors the leave-one-out shape: a
// one-element removal must agree with the boxed removal.
func TestResultWithoutFloatsSingleton(t *testing.T) {
	for _, name := range Names() {
		f, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []float64{5, 3, 9, 3, 7} {
			f.Add(engine.NewFloat(v))
		}
		for _, v := range []float64{5, 3, 9} {
			want := f.ResultWithoutSet([]engine.Value{engine.NewFloat(v)})
			got, ok := f.ResultWithoutFloats([]float64{v})
			if want.IsNull() != !ok {
				t.Fatalf("%s: null mismatch removing %g", name, v)
			}
			if !want.IsNull() && !closeEnough(want.Float(), got) {
				t.Fatalf("%s: remove %g: boxed=%g float=%g", name, v, want.Float(), got)
			}
		}
	}
}

func closeEnough(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(math.Max(math.Abs(a), math.Abs(b)), 1)
}

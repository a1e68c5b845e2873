package expr

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/engine"
)

// Func is a scalar function call. Supported functions are registered in
// scalarFuncs below; aggregate function calls are parsed into
// sqlparse.AggCall, not into Func.
type Func struct {
	Name string
	Args []Expr
}

// NewFunc builds a function call expression.
func NewFunc(name string, args ...Expr) *Func {
	return &Func{Name: strings.ToLower(name), Args: args}
}

// scalarImpl evaluates a scalar function over already-evaluated
// arguments. NULL handling is done by the implementation so functions
// like coalesce can see NULLs.
type scalarImpl struct {
	minArgs, maxArgs int // maxArgs < 0 means variadic
	fn               func(args []engine.Value) (engine.Value, error)
}

// strict wraps a strict function: any NULL argument yields NULL.
func strict(fn func(args []engine.Value) (engine.Value, error)) func([]engine.Value) (engine.Value, error) {
	return func(args []engine.Value) (engine.Value, error) {
		for _, a := range args {
			if a.IsNull() {
				return engine.Null, nil
			}
		}
		return fn(args)
	}
}

func math1(f func(float64) float64) scalarImpl {
	return scalarImpl{1, 1, strict(func(a []engine.Value) (engine.Value, error) {
		return engine.NewFloat(f(a[0].Float())), nil
	})}
}

// math1Funcs are the strict float64 → float64 functions. init registers
// each in scalarFuncs; the kernel compiler (kernel.go) loops the same
// function over a chunk.
var math1Funcs = map[string]func(float64) float64{
	"floor": math.Floor, "ceil": math.Ceil, "round": math.Round, "sqrt": math.Sqrt,
	"exp": math.Exp, "ln": math.Log, "log10": math.Log10,
}

func init() {
	for name, f := range math1Funcs {
		scalarFuncs[name] = math1(f)
	}
}

var scalarFuncs = map[string]scalarImpl{
	"abs": {1, 1, strict(func(a []engine.Value) (engine.Value, error) {
		if a[0].T == engine.TInt {
			i := a[0].I
			if i < 0 {
				i = -i
			}
			return engine.NewInt(i), nil
		}
		return engine.NewFloat(math.Abs(a[0].Float())), nil
	})},
	"sign": {1, 1, strict(func(a []engine.Value) (engine.Value, error) {
		f := a[0].Float()
		switch {
		case f > 0:
			return engine.NewInt(1), nil
		case f < 0:
			return engine.NewInt(-1), nil
		default:
			return engine.NewInt(0), nil
		}
	})},
	// bucket(x, w) = floor(x/w)*w — used for windowed group-bys
	// (e.g. 30-minute windows over an epoch column).
	"bucket": {2, 2, strict(func(a []engine.Value) (engine.Value, error) {
		w := a[1].Float()
		if w == 0 {
			return engine.Null, nil
		}
		f := math.Floor(a[0].Float()/w) * w
		if a[0].T == engine.TInt && a[1].T == engine.TInt {
			return engine.NewInt(int64(f)), nil
		}
		return engine.NewFloat(f), nil
	})},
	"lower": {1, 1, strict(func(a []engine.Value) (engine.Value, error) {
		return engine.NewString(strings.ToLower(a[0].Str())), nil
	})},
	"upper": {1, 1, strict(func(a []engine.Value) (engine.Value, error) {
		return engine.NewString(strings.ToUpper(a[0].Str())), nil
	})},
	"trim": {1, 1, strict(func(a []engine.Value) (engine.Value, error) {
		return engine.NewString(strings.TrimSpace(a[0].Str())), nil
	})},
	"length": {1, 1, strict(func(a []engine.Value) (engine.Value, error) {
		return engine.NewInt(int64(len(a[0].Str()))), nil
	})},
	// substr(s, start1, len) with 1-based start, like SQL.
	"substr": {3, 3, strict(func(a []engine.Value) (engine.Value, error) {
		s := a[0].Str()
		start := int(a[1].Int()) - 1
		n := int(a[2].Int())
		if start < 0 {
			start = 0
		}
		if start > len(s) {
			start = len(s)
		}
		end := start + n
		if end > len(s) {
			end = len(s)
		}
		if end < start {
			end = start
		}
		return engine.NewString(s[start:end]), nil
	})},
	"coalesce": {1, -1, func(a []engine.Value) (engine.Value, error) {
		for _, v := range a {
			if !v.IsNull() {
				return v, nil
			}
		}
		return engine.Null, nil
	}},
	"year": {1, 1, strict(func(a []engine.Value) (engine.Value, error) {
		return engine.NewInt(int64(a[0].Time().Year())), nil
	})},
	"month": {1, 1, strict(func(a []engine.Value) (engine.Value, error) {
		return engine.NewInt(int64(a[0].Time().Month())), nil
	})},
	"day": {1, 1, strict(func(a []engine.Value) (engine.Value, error) {
		return engine.NewInt(int64(a[0].Time().Day())), nil
	})},
	"hour": {1, 1, strict(func(a []engine.Value) (engine.Value, error) {
		return engine.NewInt(int64(a[0].Time().Hour())), nil
	})},
	"minute": {1, 1, strict(func(a []engine.Value) (engine.Value, error) {
		return engine.NewInt(int64(a[0].Time().Minute())), nil
	})},
	"dow": {1, 1, strict(func(a []engine.Value) (engine.Value, error) {
		return engine.NewInt(int64(a[0].Time().Weekday())), nil
	})},
	// epoch(ts) — unix seconds of a time value.
	"epoch": {1, 1, strict(func(a []engine.Value) (engine.Value, error) {
		if a[0].T != engine.TTime {
			return engine.Null, fmt.Errorf("expr: epoch() wants time, got %s", a[0].T)
		}
		return engine.NewInt(a[0].I), nil
	})},
}

// IsScalarFunc reports whether name is a registered scalar function.
func IsScalarFunc(name string) bool {
	_, ok := scalarFuncs[strings.ToLower(name)]
	return ok
}

// Resolve implements Expr.
func (f *Func) Resolve(schema engine.Schema) error {
	impl, ok := scalarFuncs[f.Name]
	if !ok {
		return fmt.Errorf("expr: unknown function %q", f.Name)
	}
	if len(f.Args) < impl.minArgs || (impl.maxArgs >= 0 && len(f.Args) > impl.maxArgs) {
		return fmt.Errorf("expr: %s takes %d..%d args, got %d", f.Name, impl.minArgs, impl.maxArgs, len(f.Args))
	}
	for _, a := range f.Args {
		if err := a.Resolve(schema); err != nil {
			return err
		}
	}
	return nil
}

// Eval implements Expr.
func (f *Func) Eval(row []engine.Value) (engine.Value, error) {
	impl, ok := scalarFuncs[f.Name]
	if !ok {
		return engine.Null, fmt.Errorf("expr: unknown function %q", f.Name)
	}
	args := make([]engine.Value, len(f.Args))
	for i, a := range f.Args {
		v, err := a.Eval(row)
		if err != nil {
			return engine.Null, err
		}
		args[i] = v
	}
	return impl.fn(args)
}

// String implements Expr.
func (f *Func) String() string {
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", f.Name, strings.Join(parts, ", "))
}

// Columns implements Expr.
func (f *Func) Columns(dst []string) []string {
	for _, a := range f.Args {
		dst = a.Columns(dst)
	}
	return dst
}

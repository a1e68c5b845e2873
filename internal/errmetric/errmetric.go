// Package errmetric implements the user-selectable error metrics ε of
// the paper: functions over the suspect aggregate values S that are 0
// when S is error-free and grow with the severity of the error.
//
// Every metric of the paper's Error Metric Form is a per-group penalty
// Term(sᵢ) ≥ 0, combined over S by sum ("value is too high", "too low",
// "should be equal to") or by max — the running example
//
//	diff(S) = max(0, max_{sᵢ∈S}(sᵢ − c))
//
// ("the maximum amount an element of S exceeds a constant c"). A NULL
// aggregate (NaN) contributes 0. Eval is the one combine loop; the
// leave-one-out pass (internal/influence) reads the terms directly, so
// removing a tuple from one group costs one Term, not a pass over S. A
// metric of neither shape is not supported: none exists in the paper.
package errmetric

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Metric is a user-selected error function ε over the suspect aggregate
// values: Eval(m, S) combines m.Term over S by m.Combine().
type Metric interface {
	// Name returns a short identifier ("diff", "toohigh", ...).
	Name() string
	// Term is one group's penalty: at least 0 (never −0), and 0 for a
	// NULL aggregate, passed as NaN.
	Term(v float64) float64
	// Combine reports how the terms fold into ε.
	Combine() Combine
	// String renders the metric with its parameters.
	String() string
}

// Combine is how a metric folds its per-group terms into ε.
type Combine uint8

const (
	Sum Combine = iota // ε = Σ Term(sᵢ)
	Max                // ε = max(0, max Term(sᵢ))
)

// Eval computes ε over the suspect aggregate values. It runs once per
// candidate predicate per scoring pass and allocates nothing. Every term
// is ≥ 0, so a group without error adds an exact +0.
func Eval(m Metric, vals []float64) float64 {
	byMax, eps := m.Combine() == Max, 0.0
	for _, v := range vals {
		if t := m.Term(v); !byMax {
			eps += t
		} else if t > eps {
			eps = t
		}
	}
	return eps
}

// ---------------------------------------------------------------------

// Diff is the paper's diff(S) = max(0, max(sᵢ − c)): the maximum amount
// any suspect value exceeds the expected constant C.
type Diff struct {
	C float64
}

// Name implements Metric.
func (Diff) Name() string { return "diff" }

// Term implements Metric: the excess over C.
func (m Diff) Term(v float64) float64 { return TooHigh(m).Term(v) }

// Combine implements Metric.
func (Diff) Combine() Combine { return Max }

// String implements Metric.
func (m Diff) String() string { return fmt.Sprintf("diff(c=%g)", m.C) }

// TooHigh penalizes the total mass above the expected constant C:
// ε = Σ max(0, sᵢ − c). Compared to Diff it rewards predicates that fix
// *all* suspect groups, not just the worst one, which makes ranking
// smoother; it is the default "value is too high" form.
type TooHigh struct {
	C float64
}

// Name implements Metric.
func (TooHigh) Name() string { return "toohigh" }

// Term implements Metric.
func (m TooHigh) Term(v float64) float64 {
	if v > m.C { // NaN fails the comparison, filtering NULLs for free
		return v - m.C
	}
	return 0
}

// Combine implements Metric.
func (TooHigh) Combine() Combine { return Sum }

// String implements Metric.
func (m TooHigh) String() string { return fmt.Sprintf("toohigh(c=%g)", m.C) }

// TooLow penalizes mass below the expected constant: ε = Σ max(0, c − sᵢ).
type TooLow struct {
	C float64
}

// Name implements Metric.
func (TooLow) Name() string { return "toolow" }

// Term implements Metric.
func (m TooLow) Term(v float64) float64 {
	if v < m.C { // NaN fails the comparison, filtering NULLs for free
		return m.C - v
	}
	return 0
}

// Combine implements Metric.
func (TooLow) Combine() Combine { return Sum }

// String implements Metric.
func (m TooLow) String() string { return fmt.Sprintf("toolow(c=%g)", m.C) }

// NotEqual is "should be equal to c": ε = Σ |sᵢ − c|.
type NotEqual struct {
	C float64
}

// Name implements Metric.
func (NotEqual) Name() string { return "notequal" }

// Term implements Metric.
func (m NotEqual) Term(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return math.Abs(v - m.C)
}

// Combine implements Metric.
func (NotEqual) Combine() Combine { return Sum }

// String implements Metric.
func (m NotEqual) String() string { return fmt.Sprintf("notequal(c=%g)", m.C) }

// ZScore penalizes values more than K standard deviations from the
// reference mean: ε = Σ max(0, |sᵢ−Mean|/Std − K), and 0 when Std ≤ 0.
// It captures "these points are outliers relative to the rest of the
// series" without the user naming a constant; the frontend fills
// Mean/Std from the non-suspect groups.
type ZScore struct {
	Mean, Std, K float64
}

// Name implements Metric.
func (ZScore) Name() string { return "zscore" }

// Term implements Metric.
func (m ZScore) Term(v float64) float64 {
	if z := math.Abs(v-m.Mean) / m.Std; m.Std > 0 && z > m.K { // NaN z fails the comparison
		return z - m.K
	}
	return 0
}

// Combine implements Metric.
func (ZScore) Combine() Combine { return Sum }

// String implements Metric.
func (m ZScore) String() string {
	return fmt.Sprintf("zscore(mean=%g, std=%g, k=%g)", m.Mean, m.Std, m.K)
}

// ---------------------------------------------------------------------
// Registry (used by the HTTP API and CLI to construct metrics by name)

// Spec describes one registrable metric for UIs: its name, the
// human-readable label the frontend shows ("value is too high"), and its
// parameter names.
type Spec struct {
	Name   string
	Label  string
	Params []string
}

// Specs lists the metrics the frontend offers, mirroring the paper's
// Error Metric Form.
func Specs() []Spec {
	return []Spec{
		{Name: "diff", Label: "worst excess over expected value", Params: []string{"c"}},
		{Name: "toohigh", Label: "value is too high", Params: []string{"c"}},
		{Name: "toolow", Label: "value is too low", Params: []string{"c"}},
		{Name: "notequal", Label: "should be equal to", Params: []string{"c"}},
		{Name: "zscore", Label: "outlier vs the other groups", Params: []string{"mean", "std", "k"}},
	}
}

// New constructs a metric by name with named parameters.
func New(name string, params map[string]float64) (Metric, error) {
	get := func(k string, def float64) float64 {
		if v, ok := params[k]; ok {
			return v
		}
		return def
	}
	switch strings.ToLower(name) {
	case "diff":
		return Diff{C: get("c", 0)}, nil
	case "toohigh":
		return TooHigh{C: get("c", 0)}, nil
	case "toolow":
		return TooLow{C: get("c", 0)}, nil
	case "notequal":
		return NotEqual{C: get("c", 0)}, nil
	case "zscore":
		return ZScore{Mean: get("mean", 0), Std: get("std", 1), K: get("k", 2)}, nil
	default:
		return nil, fmt.Errorf("errmetric: unknown metric %q", name)
	}
}

// ParseSpec parses "name(k=v, k=v)" or bare "name" into a metric, the
// format the CLI accepts.
func ParseSpec(s string) (Metric, error) {
	s = strings.TrimSpace(s)
	name := s
	params := map[string]float64{}
	if i := strings.IndexByte(s, '('); i >= 0 {
		if !strings.HasSuffix(s, ")") {
			return nil, fmt.Errorf("errmetric: malformed spec %q", s)
		}
		name = s[:i]
		body := s[i+1 : len(s)-1]
		if strings.TrimSpace(body) != "" {
			for _, kv := range strings.Split(body, ",") {
				parts := strings.SplitN(kv, "=", 2)
				if len(parts) != 2 {
					return nil, fmt.Errorf("errmetric: malformed param %q", kv)
				}
				f, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
				if err != nil {
					return nil, fmt.Errorf("errmetric: param %q: %w", kv, err)
				}
				params[strings.TrimSpace(parts[0])] = f
			}
		}
	}
	return New(name, params)
}

// SuggestReference computes a robust reference constant for a series:
// the median of vals. UIs use it to prefill the metric's expected value
// from the non-suspect groups.
func SuggestReference(vals []float64) float64 {
	var sorted []float64
	for _, v := range vals {
		if !math.IsNaN(v) {
			sorted = append(sorted, v)
		}
	}
	if len(sorted) == 0 {
		return 0
	}
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

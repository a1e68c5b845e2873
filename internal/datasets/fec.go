package datasets

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/engine"
)

// FECConfig parameterizes the synthetic campaign-contributions table.
type FECConfig struct {
	// Days is the campaign length in days (default 600 — the paper's
	// Figure 7 spans "since 11/14/2006" with the anomaly near day 500).
	Days int
	// Rows is the total donation count (default 150_000).
	Rows int
	// Start is day 0 (default 2006-11-14, per Figure 7's caption).
	Start time.Time
	// Candidates to generate (default Obama, McCain, Clinton, Romney).
	Candidates []string
	// SpikeCandidate receives the reattribution anomaly (default
	// "McCain", per the walkthrough).
	SpikeCandidate string
	// SpikeDay centers the negative spike (default 500).
	SpikeDay int
	// SpikeWidth spreads the anomaly over ±SpikeWidth days (default 5).
	SpikeWidth int
	// SpikeCount is the number of reattribution rows (default 400).
	SpikeCount int
	// RefundRate is the background rate of ordinary (non-anomalous)
	// negative refund rows (default 0.002).
	RefundRate float64
	// Seed makes generation deterministic (default 1).
	Seed int64
}

func (c *FECConfig) defaults() {
	if c.Days <= 0 {
		c.Days = 600
	}
	if c.Rows <= 0 {
		c.Rows = 150_000
	}
	if c.Start.IsZero() {
		c.Start = time.Date(2006, 11, 14, 0, 0, 0, 0, time.UTC)
	}
	if len(c.Candidates) == 0 {
		c.Candidates = []string{"Obama", "McCain", "Clinton", "Romney"}
	}
	if c.SpikeCandidate == "" {
		c.SpikeCandidate = "McCain"
	}
	if c.SpikeDay <= 0 {
		c.SpikeDay = 500
	}
	if c.SpikeWidth <= 0 {
		c.SpikeWidth = 5
	}
	if c.SpikeCount <= 0 {
		c.SpikeCount = 400
	}
	if c.RefundRate <= 0 {
		c.RefundRate = 0.002
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// FECSchema mirrors the FEC contribution file's useful columns: the
// candidate, donor geography and occupation, the amount, the
// contribution date (plus a precomputed campaign-day integer for easy
// grouping), and the free-text memo field the walkthrough pivots on.
func FECSchema() engine.Schema {
	return engine.NewSchema(
		"candidate", engine.TString,
		"state", engine.TString,
		"city", engine.TString,
		"occupation", engine.TString,
		"employer", engine.TString,
		"amount", engine.TFloat,
		"date", engine.TTime,
		"day", engine.TInt,
		"memo", engine.TString,
	)
}

var (
	fecStates = []string{"CA", "NY", "TX", "FL", "IL", "MA", "WA", "PA", "OH", "VA", "AZ", "CO", "GA", "NC", "MI"}
	fecCities = map[string][]string{
		"CA": {"LOS ANGELES", "SAN FRANCISCO", "SAN DIEGO", "SACRAMENTO"},
		"NY": {"NEW YORK", "BROOKLYN", "ALBANY", "BUFFALO"},
		"TX": {"HOUSTON", "DALLAS", "AUSTIN", "SAN ANTONIO"},
		"FL": {"MIAMI", "ORLANDO", "TAMPA", "JACKSONVILLE"},
		"IL": {"CHICAGO", "SPRINGFIELD", "EVANSTON"},
		"MA": {"BOSTON", "CAMBRIDGE", "SOMERVILLE"},
		"WA": {"SEATTLE", "SPOKANE", "TACOMA"},
		"PA": {"PHILADELPHIA", "PITTSBURGH", "HARRISBURG"},
		"OH": {"COLUMBUS", "CLEVELAND", "CINCINNATI"},
		"VA": {"ARLINGTON", "RICHMOND", "NORFOLK"},
		"AZ": {"PHOENIX", "TUCSON", "SCOTTSDALE"},
		"CO": {"DENVER", "BOULDER", "COLORADO SPRINGS"},
		"GA": {"ATLANTA", "SAVANNAH", "ATHENS"},
		"NC": {"CHARLOTTE", "RALEIGH", "DURHAM"},
		"MI": {"DETROIT", "ANN ARBOR", "GRAND RAPIDS"},
	}
	fecOccupations = []string{
		"RETIRED", "ATTORNEY", "PHYSICIAN", "HOMEMAKER", "ENGINEER",
		"PROFESSOR", "CONSULTANT", "TEACHER", "EXECUTIVE", "CEO",
		"INVESTOR", "BANKER", "SALES", "REAL ESTATE", "NOT EMPLOYED",
	}
	fecEmployers = []string{
		"SELF-EMPLOYED", "RETIRED", "NONE", "GOOGLE", "GOLDMAN SACHS",
		"HARVARD UNIVERSITY", "MICROSOFT", "EXXON", "GE", "IBM",
		"STATE OF CALIFORNIA", "US ARMY", "BANK OF AMERICA",
	}
	// MemoReattribution is the exact string the paper's walkthrough
	// discovers in the top predicate.
	MemoReattribution = "REATTRIBUTION TO SPOUSE"
	// MemoRefund marks ordinary refunds (background negatives that are
	// NOT the anomaly, to keep the learners honest).
	MemoRefund = "REFUND"
)

// FEC generates the donations table and the ground-truth labels (true =
// row belongs to the injected reattribution anomaly).
func FEC(cfg FECConfig) (*engine.Table, []bool) {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := newSegWriter(engine.MustNewTable("donations", FECSchema()), cfg.Rows)
	truth := make([]bool, 0, cfg.Rows)

	// Candidate popularity weights and per-candidate campaign ramp.
	weights := make([]float64, len(cfg.Candidates))
	for i := range weights {
		weights[i] = 0.5 + rng.Float64()
	}
	var wsum float64
	for _, w := range weights {
		wsum += w
	}

	normalRows := cfg.Rows - cfg.SpikeCount
	if normalRows < 0 {
		normalRows = 0
	}
	for i := 0; i < normalRows; i++ {
		// Pick candidate by weight.
		target := rng.Float64() * wsum
		ci := 0
		for cum := 0.0; ci < len(weights); ci++ {
			cum += weights[ci]
			if cum >= target {
				break
			}
		}
		if ci >= len(cfg.Candidates) {
			ci = len(cfg.Candidates) - 1
		}
		cand := cfg.Candidates[ci]
		// Donations ramp up over the campaign with event spikes.
		day := int(math.Pow(rng.Float64(), 0.6) * float64(cfg.Days))
		if day >= cfg.Days {
			day = cfg.Days - 1
		}
		state := fecStates[rng.Intn(len(fecStates))]
		cities := fecCities[state]
		amount := donationAmount(rng)
		memo := ""
		if rng.Float64() < cfg.RefundRate {
			amount = -amount
			memo = MemoRefund
		}
		fecRow(w.next(), cand, state, cities[rng.Intn(len(cities))],
			fecOccupations[rng.Intn(len(fecOccupations))],
			fecEmployers[rng.Intn(len(fecEmployers))],
			round2(amount), cfg.Start.AddDate(0, 0, day), day, memo)
		truth = append(truth, false)
	}

	// The anomaly: a burst of large negative "REATTRIBUTION TO SPOUSE"
	// rows for the spike candidate around SpikeDay. High-profile donors
	// (CEOs, executives) hiding donations by reattributing to spouses.
	for i := 0; i < cfg.SpikeCount; i++ {
		day := cfg.SpikeDay + rng.Intn(2*cfg.SpikeWidth+1) - cfg.SpikeWidth
		if day < 0 {
			day = 0
		}
		if day >= cfg.Days {
			day = cfg.Days - 1
		}
		state := fecStates[rng.Intn(len(fecStates))]
		cities := fecCities[state]
		amount := -(1000 + rng.Float64()*1300) // −1000..−2300, legal-max scale
		occ := []string{"CEO", "EXECUTIVE", "INVESTOR"}[rng.Intn(3)]
		fecRow(w.next(), cfg.SpikeCandidate, state, cities[rng.Intn(len(cities))], occ,
			fecEmployers[rng.Intn(len(fecEmployers))],
			round2(amount), cfg.Start.AddDate(0, 0, day), day, MemoReattribution)
		truth = append(truth, true)
	}
	return w.done(), truth
}

// fecRow appends one donations row to b in FECSchema's column order.
func fecRow(b *engine.Batch, cand, state, city, occ, employer string, amount float64, date time.Time, day int, memo string) {
	for c, s := range [...]string{0: cand, 1: state, 2: city, 3: occ, 4: employer} {
		_ = b.AppendValue(c, engine.NewString(s)) // a string always fits a string column
	}
	b.AppendFloat(5, amount)
	b.AppendInt(6, date.Unix())
	b.AppendInt(7, int64(day))
	_ = b.AppendValue(8, engine.NewString(memo))
}

// FECDB wraps FEC in a one-table database.
func FECDB(cfg FECConfig) (*engine.DB, []bool) {
	t, truth := FEC(cfg)
	db := engine.NewDB()
	db.Register(t)
	return db, truth
}

// FECDailySQL builds the Figure 7 query: a candidate's total received
// donations per day.
func FECDailySQL(candidate string) string {
	return fmt.Sprintf(`SELECT day, sum(amount) AS total FROM donations WHERE candidate = '%s' GROUP BY day ORDER BY day`, candidate)
}

// donationAmount draws a realistic positive donation: clustered at
// round numbers with a log-normal tail capped at the $2300 limit era.
func donationAmount(rng *rand.Rand) float64 {
	r := rng.Float64()
	switch {
	case r < 0.25:
		return 25
	case r < 0.45:
		return 50
	case r < 0.60:
		return 100
	case r < 0.70:
		return 250
	case r < 0.78:
		return 500
	case r < 0.84:
		return 1000
	case r < 0.88:
		return 2300
	default:
		amt := math.Exp(rng.NormFloat64()*1.1 + 4.2)
		if amt > 2300 {
			amt = 2300
		}
		if amt < 5 {
			amt = 5
		}
		return amt
	}
}

// Truth is a convenience wrapper for scoring explanations against the
// generator's labels.
type Truth struct {
	labels []bool
	n      int
}

// NewTruth wraps a label slice.
func NewTruth(labels []bool) *Truth {
	n := 0
	for _, l := range labels {
		if l {
			n++
		}
	}
	return &Truth{labels: labels, n: n}
}

// NumPositive returns the number of ground-truth anomalous rows.
func (t *Truth) NumPositive() int { return t.n }

// Label reports whether row is anomalous.
func (t *Truth) Label(row int) bool { return row >= 0 && row < len(t.labels) && t.labels[row] }

// Score computes precision/recall/F1 of a predicted row set against the
// ground truth restricted to the given population (nil = all rows).
func (t *Truth) Score(predicted []int, population []int) (precision, recall, f1 float64) {
	var popPos int
	if population == nil {
		popPos = t.n
	} else {
		for _, r := range population {
			if t.Label(r) {
				popPos++
			}
		}
	}
	if len(predicted) == 0 || popPos == 0 {
		return 0, 0, 0
	}
	hit := 0
	for _, r := range predicted {
		if t.Label(r) {
			hit++
		}
	}
	precision = float64(hit) / float64(len(predicted))
	recall = float64(hit) / float64(popPos)
	if precision+recall > 0 {
		f1 = 2 * precision * recall / (precision + recall)
	}
	return
}

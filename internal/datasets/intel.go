// Package datasets generates the two demo datasets of the paper with
// known ground truth.
//
// The paper demos on (a) the 2012 FEC presidential campaign
// contributions download and (b) the Intel Lab sensor trace (2.3M
// readings, 54 motes, ~2/minute, one month). Neither raw download is
// available offline, so this package synthesizes statistically faithful
// stand-ins that reproduce the *anomalies the demo walkthroughs rely
// on* — and, unlike the real data, label every anomalous row, enabling
// the quantitative precision/recall evaluation of internal/core's quality
// table.
package datasets

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/engine"
)

// IntelConfig parameterizes the synthetic Intel Lab sensor trace.
type IntelConfig struct {
	// Motes is the sensor count (default 54, as deployed).
	Motes int
	// Rows is the total reading count (default 100_000; the real trace
	// has 2.3M — use that for the full-scale run).
	Rows int
	// Start is the first reading's timestamp (default 2004-02-28 00:00
	// UTC, matching the real deployment's era).
	Start time.Time
	// EpochSeconds is the sampling period (default 31s ≈ twice/minute).
	EpochSeconds int
	// FailingMotes is how many motes suffer the battery-death failure
	// (default 3). The real trace's infamous artifact: as a mote's
	// battery voltage sags below ~2.4V its temperature readings climb
	// above 100°F and grow increasingly absurd.
	FailingMotes int
	// FailAfterFrac is the fraction of the trace after which failing
	// motes begin to die (default 0.35).
	FailAfterFrac float64
	// Seed makes generation deterministic (default 1).
	Seed int64
}

func (c *IntelConfig) defaults() {
	if c.Motes <= 0 {
		c.Motes = 54
	}
	if c.Rows <= 0 {
		c.Rows = 100_000
	}
	if c.Start.IsZero() {
		c.Start = time.Date(2004, 2, 28, 0, 0, 0, 0, time.UTC)
	}
	if c.EpochSeconds <= 0 {
		c.EpochSeconds = 31
	}
	if c.FailingMotes < 0 {
		c.FailingMotes = 0
	} else if c.FailingMotes == 0 {
		c.FailingMotes = 3
	}
	if c.FailAfterFrac <= 0 || c.FailAfterFrac >= 1 {
		c.FailAfterFrac = 0.35
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// IntelSchema is the readings table layout, mirroring the real trace's
// columns (epoch, moteid, temperature, humidity, light, voltage) plus a
// unix-seconds ts column.
func IntelSchema() engine.Schema {
	return engine.NewSchema(
		"ts", engine.TTime,
		"epoch", engine.TInt,
		"moteid", engine.TInt,
		"temperature", engine.TFloat,
		"humidity", engine.TFloat,
		"light", engine.TFloat,
		"voltage", engine.TFloat,
	)
}

// Intel generates the readings table. The returned truth slice is
// parallel to row ids: truth[i] is true when row i was produced by the
// battery-failure error process (the ground-truth D*).
func Intel(cfg IntelConfig) (*engine.Table, []bool) {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := newSegWriter(engine.MustNewTable("readings", IntelSchema()), cfg.Rows)
	truth := make([]bool, 0, cfg.Rows)

	// Pick the failing motes deterministically: spread across the range.
	failing := make(map[int]bool, cfg.FailingMotes)
	for len(failing) < cfg.FailingMotes && len(failing) < cfg.Motes {
		failing[1+rng.Intn(cfg.Motes)] = true
	}
	// Per-mote personality: small temperature offset and noise level.
	offset := make([]float64, cfg.Motes+1)
	noise := make([]float64, cfg.Motes+1)
	for m := 1; m <= cfg.Motes; m++ {
		offset[m] = rng.NormFloat64() * 1.2
		noise[m] = 0.3 + rng.Float64()*0.4
	}
	// Voltage decay rate for failing motes (per epoch fraction).
	// Iterate in sorted mote order: map iteration order would make the
	// generator nondeterministic for a fixed seed.
	failStart := make(map[int]float64, len(failing))
	failingSorted := make([]int, 0, len(failing))
	for m := range failing {
		failingSorted = append(failingSorted, m)
	}
	sort.Ints(failingSorted)
	for _, m := range failingSorted {
		failStart[m] = cfg.FailAfterFrac + rng.Float64()*0.25
	}

	epochs := (cfg.Rows + cfg.Motes - 1) / cfg.Motes
	rowCount := 0
	for e := 0; e < epochs && rowCount < cfg.Rows; e++ {
		frac := float64(e) / float64(max(1, epochs-1))
		ts := cfg.Start.Add(time.Duration(e*cfg.EpochSeconds) * time.Second)
		// Diurnal temperature cycle: ~68°F base, ±4°F over the day.
		dayFrac := float64(ts.Hour()*3600+ts.Minute()*60+ts.Second()) / 86400
		baseTemp := 68 + 4*math.Sin(2*math.Pi*(dayFrac-0.3))
		baseHum := 40 - 6*math.Sin(2*math.Pi*(dayFrac-0.3))
		// Lights on during work hours.
		baseLight := 80.0
		if dayFrac > 0.33 && dayFrac < 0.75 {
			baseLight = 450
		}
		for m := 1; m <= cfg.Motes && rowCount < cfg.Rows; m++ {
			temp := baseTemp + offset[m] + rng.NormFloat64()*noise[m]
			hum := baseHum + rng.NormFloat64()*1.5
			light := baseLight * (0.8 + rng.Float64()*0.4)
			volt := 2.68 - 0.1*frac + rng.NormFloat64()*0.005

			anomalous := false
			if failing[m] && frac >= failStart[m] {
				// Battery death: voltage sags fast; the ADC reference
				// drifts and temperature readings shoot past 100°F,
				// worsening as the battery dies (the real trace tops out
				// near 122°F and beyond).
				died := (frac - failStart[m]) / math.Max(1e-9, 1-failStart[m])
				volt = 2.4 - 0.25*died + rng.NormFloat64()*0.01
				temp = 100 + 35*died + rng.NormFloat64()*3
				hum = -4 + rng.NormFloat64()*2 // humidity also goes haywire
				anomalous = true
			}
			b := w.next()
			b.AppendInt(0, ts.Unix())
			b.AppendInt(1, int64(e))
			b.AppendInt(2, int64(m))
			b.AppendFloat(3, round2(temp))
			b.AppendFloat(4, round2(hum))
			b.AppendFloat(5, round2(light))
			b.AppendFloat(6, round4(volt))
			truth = append(truth, anomalous)
			rowCount++
		}
	}
	return w.done(), truth
}

// IntelDB wraps Intel in a one-table database.
func IntelDB(cfg IntelConfig) (*engine.DB, []bool) {
	t, truth := Intel(cfg)
	db := engine.NewDB()
	db.Register(t)
	return db, truth
}

// IntelWindowSQL is the Figure 4 query: average and spread of
// temperature in 30-minute windows. The epoch column advances once per
// EpochSeconds, so 30 minutes is 1800/EpochSeconds epochs; bucketing on
// the ts unix seconds is simpler and exact.
const IntelWindowSQL = `SELECT bucket(epoch(ts), 1800) AS w30, avg(temperature) AS avg_temp, stddev(temperature) AS std_temp FROM readings GROUP BY bucket(epoch(ts), 1800) ORDER BY w30`

// segWriter builds a generated table a segment at a time: typed cells
// go into a batch of at most SegRows rows, appended through AppendCols
// when it fills, so transient memory stays at one segment.
type segWriter struct {
	t    *engine.Table
	b    *engine.Batch
	rows int // rows the table should hold when done: a capacity hint
}

func newSegWriter(t *engine.Table, rows int) *segWriter {
	return &segWriter{t: t, b: engine.NewBatch(t.Schema(), min(rows, t.SegRows())), rows: rows}
}

// next returns the batch the next row's cells go into, appending a full
// one first.
func (w *segWriter) next() *engine.Batch {
	if w.b.Len() == w.t.SegRows() {
		w.t = w.done()
		w.b = engine.NewBatch(w.t.Schema(), min(max(w.rows-w.t.NumRows(), 0), w.t.SegRows()))
	}
	return w.b
}

// done appends the rows still in the batch and returns the table.
func (w *segWriter) done() *engine.Table {
	t, err := w.t.AppendCols(w.b, 0, w.b.Len())
	if err != nil {
		panic(err) // a generator's cells are typed by its static schema
	}
	return t
}

func round2(f float64) float64 { return math.Round(f*100) / 100 }
func round4(f float64) float64 { return math.Round(f*10000) / 10000 }

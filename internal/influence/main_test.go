package influence

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain pins the suite-wide no-stranded-goroutines contract: the F
// build's par.Do helpers have all exited once a Scorer is built.
func TestMain(m *testing.M) { leakcheck.Main(m) }

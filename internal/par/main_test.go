package par

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain pins the suite-wide no-stranded-goroutines contract: every
// helper Do starts has exited by the time Do returns or re-panics.
func TestMain(m *testing.M) { leakcheck.Main(m) }

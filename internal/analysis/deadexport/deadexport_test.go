package deadexport_test

import (
	"testing"

	"dualindex/internal/analysis/deadexport"
	"dualindex/internal/analysis/framework/analysistest"
)

func TestDeadExport(t *testing.T) {
	analysistest.RunModule(t, "testdata", deadexport.Analyzer, "app", "internal/lib", "internal/testkit")
}

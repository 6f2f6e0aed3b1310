package ioboundary_test

import (
	"testing"

	"dualindex/internal/analysis/contracts"
	"dualindex/internal/analysis/framework/analysistest"
	"dualindex/internal/analysis/ioboundary"
)

// TestIOBoundary runs the repo's boundary tables over the fixtures, except
// that the fixture storage layer may cross the syscall line, which the
// repo grants no package, so the fixtures pin both sides of that check.
func TestIOBoundary(t *testing.T) {
	analyzer := ioboundary.NewAnalyzer(ioboundary.Config{
		FileIOFuncs:       contracts.FileIOFuncs,
		FileIOPackages:    contracts.FileIOPackages,
		FileIORootFiles:   contracts.FileIORootFiles,
		GoroutinePackages: contracts.GoroutinePackages,
		SyscallPackages:   []string{"internal/disk"},
		DiskImporters:     contracts.DiskImporters,
		DiskPath:          "internal/disk",
		CodecSymbols:      contracts.CodecSymbols,
		CodecUsers:        contracts.CodecUsers,
		CodecPath:         "internal/postings",
	})
	analysistest.Run(t, "testdata", analyzer,
		"internal/feature", "internal/disk", "internal/postings", "cmd/tool")
}

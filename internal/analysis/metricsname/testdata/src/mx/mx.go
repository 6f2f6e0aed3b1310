// Package mx exercises the metric-name contract against the fixture
// registry.
package mx

import (
	"fmt"

	"metrics"
)

func register(reg *metrics.Registry, shard string) {
	// Clean: literal lower_snake names; dynamic label values concatenated
	// after a literal lead are fine.
	reg.Counter("docs_total")
	reg.Counter(`flushes_total{shard="` + shard + `"}`)
	reg.Histogram("latency_seconds", nil)
	reg.RegisterFunc("disk_ops_total", func() float64 { return 0 })

	reg.Counter("DocsTotal")                       // want "not lower_snake"
	reg.Counter(fmt.Sprintf("a_%d", 1))            // want "does not start with a literal"
	reg.Counter(shard + "_total")                  // want "does not start with a literal"
	reg.Histogram(`depth{Shard="`+shard+`"}`, nil) // want "label key .Shard. is not lower_snake"

	reg.Counter("dup_total")
	reg.Counter("dup_total") // want "registered twice"
}

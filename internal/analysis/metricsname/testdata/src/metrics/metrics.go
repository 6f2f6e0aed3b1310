// Package metrics mirrors the real registry's registration surface for the
// metricsname golden tests.
package metrics

type Registry struct{}

func (r *Registry) Counter(name string) *int { return new(int) }

func (r *Registry) Histogram(name string, buckets []float64) *int { return new(int) }

func (r *Registry) RegisterFunc(name string, f func() float64) {}

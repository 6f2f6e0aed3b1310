// Package testkit imports testing in its non-test files, so it is test
// support: its exports exist for tests and are not checked.
package testkit

import "testing"

// Check is called only by tests, as a test helper is.
func Check(t *testing.T) { t.Helper() }

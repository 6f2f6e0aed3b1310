// Package app lies outside internal/, so its own exports are not checked;
// it is the non-test caller of package lib.
package app

import (
	"io"

	"internal/lib"
)

// Run uses lib across packages and hands a lib.Buffer to an io.Writer.
func Run() {
	var w io.Writer = lib.NewBuffer()
	w.Write(make([]byte, lib.Limit))
}

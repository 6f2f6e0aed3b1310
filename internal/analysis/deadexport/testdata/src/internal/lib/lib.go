// Package lib declares the exports the deadexport fixture checks; package
// app is its only non-test caller.
package lib

// Unused has no caller anywhere.
func Unused() {} // want "lib.Unused is exported but no non-test code references it"

// TestOnly is called only from lib_test.go, which is not non-test code.
func TestOnly() int { return 1 } // want "lib.TestOnly is exported but no non-test code references it"

// Limit is referenced from package app.
const Limit = 8

// NewBuffer is called from package app.
func NewBuffer() *Buffer { return &Buffer{} }

// Buffer is referenced by NewBuffer's signature.
type Buffer struct{ n int }

// Write has no direct caller, but Buffer satisfies io.Writer, which app
// uses, and io.Writer declares Write.
func (b *Buffer) Write(p []byte) (int, error) {
	b.n += len(p)
	return len(p), nil
}

// Len has no caller, and no interface app uses declares it.
func (b *Buffer) Len() int { return b.n } // want "lib.Buffer.Len is exported but no non-test code references it"

// Reset calls itself only; a use inside its own declaration does not count.
func (b *Buffer) Reset() { // want "lib.Buffer.Reset is exported"
	if b.n > 0 {
		b.n = 0
		b.Reset()
	}
}

//nolint:deadexport // fixture: a justified suppression silences the finding
func Reserved() {}

func unexported() {}

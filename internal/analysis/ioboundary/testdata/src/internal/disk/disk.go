// Package disk is the fixture's storage layer: inside the I/O boundary, it
// may open files, cross the syscall line and start its writer goroutines.
// Clean throughout.
package disk

import (
	"os"
	"syscall"
)

type Array struct{}

func Open(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_ = syscall.Getpagesize()
	done := make(chan struct{})
	go close(done)
	<-done
	return nil
}

// Package feature sits above the storage abstraction: file I/O, the
// syscall line, block-store imports, raw codec calls and go statements are
// all boundary crossings here.
package feature

import (
	"os"
	"syscall" // want "only the storage layer"

	"internal/disk" // want "block I/O belongs below Options.Backend"
	"internal/postings"
)

func leak(path string) {
	_, _ = os.Open(path)      // want "file I/O goes through Options.Backend"
	_ = syscall.Getpagesize() // want "outside the storage layer"
	_ = postings.Encode(nil)  // want "raw postings bytes flow only through Options.Codec"
	_ = disk.Array{}

	// The value API is unrestricted: only the raw codec symbols are fenced.
	var l postings.List
	_ = l.Len()

	// Non-file os helpers are not file I/O.
	_ = os.Getenv("HOME")

	done := make(chan struct{})
	go close(done) // want "run concurrent work through parallel.Do"
	<-done
}

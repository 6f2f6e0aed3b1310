package disk

import "fmt"

// Step is one staged write of the array's write plan: the image of Blocks
// whole blocks starting at Block on Disk.
type Step struct {
	Disk          int
	Block, Blocks int64
	Image         []byte
}

type blockKey struct {
	disk  int
	block int64
}

// Stage records a write of count blocks in the trace and, with a store,
// appends the blocks data occupies to the write plan: ReadBlocksAt sees
// them at once, the store at Commit. data is zero-padded only to its own
// last block, so the store receives the occupied prefix of the run and
// the blocks past it keep whatever they held; the trace still records the
// whole run, the paper's write. data may be nil when no store is attached.
// Stage keeps data and hands it to the store at Commit, so the caller must
// not modify it afterwards.
//
// Staging is the batch update's one write path. Its caller is the single
// planning goroutine, which never reallocates a block between two Commits,
// so the plan's newest image of a block is the block's content.
func (a *Array) Stage(disk int, block, count int64, data []byte, tag string) error {
	a.record(Write, disk, block, count, tag)
	if a.store == nil {
		return nil
	}
	occupied := a.geo.BlocksFor(int64(len(data)))
	if occupied > count {
		return fmt.Errorf("disk: %d bytes exceed %d blocks", len(data), count)
	}
	if occupied == 0 {
		return nil
	}
	img := a.padTo(occupied, data)
	bs := int64(a.geo.BlockSize)
	a.mu.Lock()
	defer a.mu.Unlock()
	a.plan = append(a.plan, Step{Disk: disk, Block: block, Blocks: occupied, Image: img})
	for i := int64(0); i < occupied; i++ {
		a.staged[blockKey{disk, block + i}] = img[i*bs : (i+1)*bs]
	}
	return nil
}

// Commit writes the staged plan to the store, on the caller in plan order,
// and empties it. Writes to different disks still overlap below: a store
// may queue them, as AsyncFileStore's one writer per disk does. The plan is
// emptied even when a write fails, and Commit returns the first error.
func (a *Array) Commit() error {
	a.mu.Lock()
	plan := a.plan
	a.mu.Unlock()
	var err error
	for _, s := range plan {
		if err = a.store.WriteAt(s.Disk, s.Block, s.Image); err != nil {
			break
		}
	}
	a.mu.Lock()
	clear(a.plan)
	a.plan = a.plan[:0]
	clear(a.staged)
	a.mu.Unlock()
	return err
}

// overlay lays the plan's staged images over buf, a store read of the run
// starting at block on disk.
func (a *Array) overlay(disk int, block int64, buf []byte) {
	bs := a.geo.BlockSize
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.staged) == 0 {
		return
	}
	for i := 0; i*bs < len(buf); i++ {
		if img, ok := a.staged[blockKey{disk, block + int64(i)}]; ok {
			copy(buf[i*bs:], img)
		}
	}
}

// padTo returns data zero-padded to blocks whole blocks: data itself when
// it fills them already, else a padded copy. data must fit the blocks.
func (a *Array) padTo(blocks int64, data []byte) []byte {
	want := blocks * int64(a.geo.BlockSize)
	if int64(len(data)) == want {
		return data
	}
	buf := make([]byte, want)
	copy(buf, data)
	return buf
}

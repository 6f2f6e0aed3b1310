package disk

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// Kind distinguishes read from write operations.
type Kind uint8

// Operation kinds.
const (
	Read Kind = iota
	Write
)

func (k Kind) String() string {
	if k == Read {
		return "read"
	}
	return "write"
}

// Tags classify operations for per-structure accounting, mirroring the
// paper's trace lines ("update bucket", "update chunk" for the directory,
// "write word" for long lists).
const (
	TagBucket    = "bucket"
	TagDirectory = "directory"
	TagLong      = "long"
)

// Op is one I/O system call in a trace: a read or write of Count contiguous
// blocks starting at Block on Disk.
type Op struct {
	Kind  Kind
	Disk  int
	Block int64
	Count int64
	Tag   string
}

// Trace records the exact sequence of I/O operations a policy produces,
// partitioned into batches at batch-update boundaries, like the paper's
// compute-disks output file.
type Trace struct {
	ops    []Op
	bounds []int // end offset (exclusive) of each finished batch
}

// Append records an operation in the current batch.
func (t *Trace) Append(op Op) {
	if op.Count <= 0 {
		panic(fmt.Sprintf("disk: trace op with count %d", op.Count))
	}
	t.ops = append(t.ops, op)
}

// EndBatch marks the end of the current batch update.
func (t *Trace) EndBatch() {
	t.bounds = append(t.bounds, len(t.ops))
}

// Len reports the total number of operations recorded.
func (t *Trace) Len() int { return len(t.ops) }

// NumBatches reports how many batches have been completed.
func (t *Trace) NumBatches() int { return len(t.bounds) }

// Ops returns all recorded operations. Callers must not mutate the slice.
func (t *Trace) Ops() []Op { return t.ops }

// Batch returns the operations of batch i.
func (t *Trace) Batch(i int) []Op {
	start := 0
	if i > 0 {
		start = t.bounds[i-1]
	}
	return t.ops[start:t.bounds[i]]
}

// WriteText serialises the trace in a line format close to the paper's
// Figure 6 ("write word ... disk ... id ... size ...").
func (t *Trace) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	batch := 0
	for i, op := range t.ops {
		for batch < len(t.bounds) && t.bounds[batch] == i {
			if _, err := fmt.Fprintln(bw, "end batch"); err != nil {
				return err
			}
			batch++
		}
		if _, err := fmt.Fprintf(bw, "%s %s disk %d block %d size %d\n",
			op.Kind, op.Tag, op.Disk, op.Block, op.Count); err != nil {
			return err
		}
	}
	for batch < len(t.bounds) {
		if _, err := fmt.Fprintln(bw, "end batch"); err != nil {
			return err
		}
		batch++
	}
	return bw.Flush()
}

// ReadText parses a trace produced by WriteText.
func ReadText(r io.Reader) (*Trace, error) {
	t := &Trace{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if text == "end batch" {
			t.EndBatch()
			continue
		}
		var kind, tag string
		var op Op
		if _, err := fmt.Sscanf(text, "%s %s disk %d block %d size %d",
			&kind, &tag, &op.Disk, &op.Block, &op.Count); err != nil {
			return nil, fmt.Errorf("disk: trace line %d: %v", line, err)
		}
		switch kind {
		case "read":
			op.Kind = Read
		case "write":
			op.Kind = Write
		default:
			return nil, fmt.Errorf("disk: trace line %d: unknown kind %q", line, kind)
		}
		op.Tag = tag
		t.Append(op)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}
